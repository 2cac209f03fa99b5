package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"ctrlsched/internal/anomaly"
	"ctrlsched/internal/campaign"
	"ctrlsched/internal/rta"
)

// AnomalyRow quantifies anomaly frequency at one task-set size — the
// paper's Section V claim ("anomalies occur extremely rarely"), measured
// on the same benchmark family as Table I.
type AnomalyRow struct {
	N             int     `json:"n"`
	Trials        int     `json:"trials"`
	JitterRaises  int     `json:"jitter_raises"` // priority raise increased the victim's jitter
	Destabilizing int     `json:"destabilizing"` // ... and flipped the stability constraint
	RaisePct      float64 `json:"raise_pct"`     // 100·JitterRaises/Trials
	DestabPct     float64 `json:"destab_pct"`
}

// AnomalyConfig parameterizes the anomaly-frequency experiment.
type AnomalyConfig struct {
	Trials  int     `json:"trials"`
	Sizes   []int   `json:"sizes"`
	Seed    int64   `json:"seed"`
	GenSpec GenSpec `json:"gen"`
}

// Normalized returns the request identity of this configuration (see
// Table1Config.Normalized).
func (c AnomalyConfig) Normalized() AnomalyConfig {
	if c.Trials == 0 {
		c.Trials = 10000
	}
	if c.Sizes == nil {
		c.Sizes = []int{4, 8, 12, 16, 20}
	}
	c.GenSpec = c.GenSpec.Normalized()
	return c
}

// AnomaliesResult is the typed outcome of the anomaly-frequency sweep.
type AnomaliesResult struct {
	Meta   Meta          `json:"meta"`
	Config AnomalyConfig `json:"config"`
	Rows   []AnomalyRow  `json:"rows"`
}

// anomalyItem is one trial's verdict.
type anomalyItem struct {
	counted      bool
	raised       bool
	destabilizes bool
}

// Anomalies measures how often a random single-step priority raise
// increases the raised task's jitter, and how often that increase
// destabilizes the loop, on random control benchmarks. Trials fan out
// over the campaign worker pool; each trial draws from its own
// deterministic RNG, so the counts are worker-count invariant.
func Anomalies(cfg AnomalyConfig, x Exec) AnomaliesResult {
	c := cfg.Normalized()
	gen := x.generator(c.GenSpec)
	total := len(c.Sizes) * c.Trials
	rows := make([]AnomalyRow, 0, len(c.Sizes))
	for si, n := range c.Sizes {
		src := anomaly.TaskSource(func(r *rand.Rand) []rta.Task {
			return gen.TaskSet(r, n)
		})
		opts := x.options(campaign.ItemSeed(c.Seed, n), si*c.Trials, total)
		items, _ := campaign.Map(c.Trials, opts, func(_ int, rng *rand.Rand) anomalyItem {
			w, raised, counted := anomaly.OneTrial(rng, src)
			return anomalyItem{counted: counted, raised: raised, destabilizes: raised && w.Destabilizes}
		})
		row := AnomalyRow{N: n}
		for _, it := range items {
			if !it.counted {
				continue
			}
			row.Trials++
			if it.raised {
				row.JitterRaises++
			}
			if it.destabilizes {
				row.Destabilizing++
			}
		}
		if row.Trials > 0 {
			row.RaisePct = 100 * float64(row.JitterRaises) / float64(row.Trials)
			row.DestabPct = 100 * float64(row.Destabilizing) / float64(row.Trials)
		}
		rows = append(rows, row)
	}
	return AnomaliesResult{
		Meta:   Meta{Kind: KindAnomalies, Schema: SchemaVersion, Seed: c.Seed, Items: total},
		Config: c,
		Rows:   rows,
	}
}

// Kind identifies the experiment that produced this result.
func (r AnomaliesResult) Kind() string { return KindAnomalies }

// Render prints the frequency table.
func (r AnomaliesResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Anomaly frequency — random priority raises on Table-I benchmarks")
	fmt.Fprintf(w, "  %4s %10s %16s %12s %16s %12s\n",
		"n", "trials", "jitter raised", "(%)", "destabilizing", "(%)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %4d %10d %16d %12.3f %16d %12.4f\n",
			row.N, row.Trials, row.JitterRaises, row.RaisePct, row.Destabilizing, row.DestabPct)
	}
}

// WriteCSV emits the rows as CSV.
func (r AnomaliesResult) WriteCSV(w io.Writer) {
	writeCSV(w, "n_tasks", "trials", "jitter_raises", "raise_pct", "destabilizing", "destab_pct")
	for _, row := range r.Rows {
		writeCSV(w, row.N, row.Trials, row.JitterRaises, row.RaisePct, row.Destabilizing, row.DestabPct)
	}
}
