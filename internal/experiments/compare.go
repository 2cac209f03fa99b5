package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"ctrlsched/internal/assign"
	"ctrlsched/internal/campaign"
	"ctrlsched/internal/taskgen"
)

// CompareRow reports, for one task-set size, how often each priority
// assignment method produced a verified-stable assignment. This is the
// paper's Section IV argument made quantitative: classical heuristics
// (rate-monotonic), stability-budget heuristics, the unsafe quadratic
// baseline, and the sound-and-complete Algorithm 1.
type CompareRow struct {
	N          int `json:"n"`
	Benchmarks int `json:"benchmarks"`

	RateMonotonicValid  int `json:"rm_valid"`
	SlackMonotonicValid int `json:"slackmono_valid"`
	UnsafeValid         int `json:"unsafe_valid"`
	BacktrackingValid   int `json:"backtracking_valid"`
}

// CompareConfig parameterizes the method comparison.
type CompareConfig struct {
	Benchmarks int   `json:"benchmarks"`
	Sizes      []int `json:"sizes"`
	Seed       int64 `json:"seed"`
	// Gen overrides the benchmark generator; nil builds one from GenSpec.
	Gen     *taskgen.Generator `json:"-"`
	GenSpec GenSpec            `json:"gen"`
	// Workers is the campaign worker-pool size; 0 means all CPUs.
	Workers int `json:"-"`
	// Progress, when non-nil, receives monotone whole-run progress.
	Progress ProgressFunc `json:"-"`
	// Abort, when non-nil and closed, stops the campaign early; the
	// partial result must then be discarded by the caller.
	Abort <-chan struct{} `json:"-"`
}

// Normalized returns the request identity of this configuration (see
// Table1Config.Normalized).
func (c CompareConfig) Normalized() CompareConfig {
	if c.Benchmarks == 0 {
		c.Benchmarks = 2000
	}
	if c.Sizes == nil {
		c.Sizes = []int{4, 8, 12, 16, 20}
	}
	c.GenSpec = c.GenSpec.Normalized()
	c.Gen, c.Workers, c.Progress, c.Abort = nil, 0, nil, nil
	return c
}

func (c CompareConfig) withDefaults() CompareConfig {
	gen, workers, progress, abort := c.Gen, c.Workers, c.Progress, c.Abort
	c = c.Normalized()
	c.Gen, c.Workers, c.Progress, c.Abort = gen, workers, progress, abort
	if c.Gen == nil {
		c.Gen = c.GenSpec.Generator()
	}
	return c
}

// CompareResult is the typed outcome of the method comparison.
type CompareResult struct {
	Meta   Meta          `json:"meta"`
	Config CompareConfig `json:"config"`
	Rows   []CompareRow  `json:"rows"`
}

// Compare runs all assignment methods on identical benchmark suites.
// Benchmarks fan out over the campaign worker pool with deterministic
// per-benchmark RNGs, so every method sees the same suite and the counts
// are worker-count invariant.
func Compare(cfg CompareConfig) CompareResult {
	c := cfg.withDefaults()
	total := len(c.Sizes) * c.Benchmarks
	rows := make([]CompareRow, 0, len(c.Sizes))
	for si, n := range c.Sizes {
		outs, _ := campaign.Map(c.Benchmarks, campaign.Options{
			Workers:    c.Workers,
			Seed:       campaign.ItemSeed(c.Seed, n),
			OnProgress: c.Progress.offset(si*c.Benchmarks, total),
			Abort:      c.Abort,
		}, func(_ int, rng *rand.Rand) assign.HeuristicOutcome {
			return assign.CompareHeuristics(c.Gen.TaskSet(rng, n))
		})
		row := CompareRow{N: n, Benchmarks: c.Benchmarks}
		for _, out := range outs {
			if out.RateMonotonic {
				row.RateMonotonicValid++
			}
			if out.SlackMonotonic {
				row.SlackMonotonicValid++
			}
			if out.UnsafeValid {
				row.UnsafeValid++
			}
			if out.Backtracking {
				row.BacktrackingValid++
			}
		}
		rows = append(rows, row)
	}
	return CompareResult{
		Meta:   Meta{Kind: KindCompare, Schema: SchemaVersion, Seed: c.Seed, Items: total},
		Config: c.Normalized(),
		Rows:   rows,
	}
}

// Kind identifies the experiment that produced this result.
func (r CompareResult) Kind() string { return KindCompare }

// Render prints the success rates of each method.
func (r CompareResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Extension — valid-assignment rate per method (% of benchmarks)")
	fmt.Fprintf(w, "  %4s %12s %10s %12s %14s %14s\n",
		"n", "benchmarks", "RM", "slack-mono", "UnsafeQuad", "Backtracking")
	for _, row := range r.Rows {
		pct := func(v int) float64 { return 100 * float64(v) / float64(row.Benchmarks) }
		fmt.Fprintf(w, "  %4d %12d %10.2f %12.2f %14.2f %14.2f\n",
			row.N, row.Benchmarks, pct(row.RateMonotonicValid), pct(row.SlackMonotonicValid),
			pct(row.UnsafeValid), pct(row.BacktrackingValid))
	}
}

// WriteCSV emits the rows as CSV.
func (r CompareResult) WriteCSV(w io.Writer) {
	writeCSV(w, "n_tasks", "benchmarks", "rm_valid", "slackmono_valid", "unsafe_valid", "backtracking_valid")
	for _, row := range r.Rows {
		writeCSV(w, row.N, row.Benchmarks, row.RateMonotonicValid, row.SlackMonotonicValid,
			row.UnsafeValid, row.BacktrackingValid)
	}
}
