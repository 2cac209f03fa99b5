package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"ctrlsched/internal/assign"
	"ctrlsched/internal/campaign"
	"ctrlsched/internal/taskgen"
)

// Table1Row is one row of the paper's Table I, extended with the
// diagnosis the paper discusses but does not tabulate: how many invalid
// outputs correspond to genuinely infeasible benchmarks versus anomaly
// misses that backtracking rescues.
type Table1Row struct {
	N          int `json:"n"` // number of control tasks
	Benchmarks int `json:"benchmarks"`
	Invalid    int `json:"invalid"` // Unsafe Quadratic produced an invalid assignment
	Rescued    int `json:"rescued"` // ... of which Backtracking found a valid assignment
	// InvalidPct is the headline Table I number.
	InvalidPct float64 `json:"invalid_pct"`
}

// Table1Config parameterizes the campaign. Zero values default to the
// paper's settings (10 000 benchmarks, n ∈ {4, 8, 12, 16, 20}).
type Table1Config struct {
	Benchmarks int   `json:"benchmarks"`
	Sizes      []int `json:"sizes"`
	Seed       int64 `json:"seed"`
	// Gen overrides the benchmark generator; when nil one is built from
	// GenSpec. Gen never travels in requests or cache keys (see GenSpec).
	Gen     *taskgen.Generator `json:"-"`
	GenSpec GenSpec            `json:"gen"`
	// DiagnoseRescues runs Backtracking on every invalid output to split
	// infeasible benchmarks from anomaly misses (costs extra time).
	DiagnoseRescues bool `json:"diagnose_rescues"`
	// Workers is the campaign worker-pool size; 0 means all CPUs. Results
	// are identical for every worker count (see package campaign), so it
	// is execution detail, not request identity.
	Workers int `json:"-"`
	// Progress, when non-nil, receives monotone whole-run progress.
	Progress ProgressFunc `json:"-"`
	// Abort, when non-nil and closed, stops the campaign early; the
	// partial result must then be discarded by the caller.
	Abort <-chan struct{} `json:"-"`
}

// Normalized returns the request identity of this configuration: every
// defaultable field filled in, every execution-only field (Gen, Workers,
// Progress, Abort) cleared. Two configs that normalize to the same value
// produce byte-identical results.
func (c Table1Config) Normalized() Table1Config {
	if c.Benchmarks == 0 {
		c.Benchmarks = 10000
	}
	if c.Sizes == nil {
		c.Sizes = []int{4, 8, 12, 16, 20}
	}
	c.GenSpec = c.GenSpec.Normalized()
	c.Gen, c.Workers, c.Progress, c.Abort = nil, 0, nil, nil
	return c
}

func (c Table1Config) withDefaults() Table1Config {
	gen, workers, progress, abort := c.Gen, c.Workers, c.Progress, c.Abort
	c = c.Normalized()
	c.Gen, c.Workers, c.Progress, c.Abort = gen, workers, progress, abort
	if c.Gen == nil {
		c.Gen = c.GenSpec.Generator()
	}
	return c
}

// Table1Result is the typed, JSON-serializable outcome of the Table I
// campaign: rows plus provenance metadata and the normalized config.
type Table1Result struct {
	Meta   Meta         `json:"meta"`
	Config Table1Config `json:"config"`
	Rows   []Table1Row  `json:"rows"`
}

// table1Item is one benchmark's verdict.
type table1Item struct {
	invalid bool
	rescued bool
}

// Table1 runs the campaign: for each task-set size it generates random
// control-task benchmarks, runs the monotonicity-assuming Unsafe
// Quadratic priority assignment, and counts invalid outputs. Benchmarks
// fan out over a campaign worker pool; each benchmark draws from its own
// deterministic RNG (seeded by campaign seed, task-set size, and
// benchmark index), so a row's numbers depend only on (Seed, n,
// Benchmarks) — not on worker count or on the other entries of Sizes.
func Table1(cfg Table1Config) Table1Result {
	c := cfg.withDefaults()
	total := len(c.Sizes) * c.Benchmarks
	rows := make([]Table1Row, 0, len(c.Sizes))
	for si, n := range c.Sizes {
		items, _ := campaign.Map(c.Benchmarks, campaign.Options{
			Workers:    c.Workers,
			Seed:       campaign.ItemSeed(c.Seed, n),
			OnProgress: c.Progress.offset(si*c.Benchmarks, total),
			Abort:      c.Abort,
		}, func(_ int, rng *rand.Rand) table1Item {
			tasks := c.Gen.TaskSet(rng, n)
			uq := assign.UnsafeQuadratic(tasks)
			if uq.Valid {
				return table1Item{}
			}
			it := table1Item{invalid: true}
			if c.DiagnoseRescues {
				// Budgeted search: enough to find real rescues (the
				// feasible case terminates quickly) while bounding the
				// exponential infeasibility proofs at large n.
				diag := assign.BacktrackingOpts(tasks, assign.Options{
					Memoize:        true,
					MaxEvaluations: 20000,
				})
				it.rescued = diag.Valid
			}
			return it
		})
		row := Table1Row{N: n, Benchmarks: c.Benchmarks}
		for _, it := range items {
			if it.invalid {
				row.Invalid++
			}
			if it.rescued {
				row.Rescued++
			}
		}
		row.InvalidPct = 100 * float64(row.Invalid) / float64(row.Benchmarks)
		rows = append(rows, row)
	}
	return Table1Result{
		Meta:   Meta{Kind: KindTable1, Schema: SchemaVersion, Seed: c.Seed, Items: total},
		Config: c.Normalized(),
		Rows:   rows,
	}
}

// Kind identifies the experiment that produced this result.
func (r Table1Result) Kind() string { return KindTable1 }

// Render prints the rows in the paper's layout.
func (r Table1Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table I — percentage of invalid solutions by Unsafe Quadratic priority assignment")
	fmt.Fprintf(w, "  %-22s", "Number of tasks (#)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8d", row.N)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-22s", "Invalid solutions (%)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8.2f", row.InvalidPct)
	}
	fmt.Fprintln(w)
	if r.Config.DiagnoseRescues {
		fmt.Fprintf(w, "  %-22s", "  rescued by Alg. 1")
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%8d", row.Rescued)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  %-22s", "  infeasible anyway")
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%8d", row.Invalid-row.Rescued)
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV emits the rows as CSV.
func (r Table1Result) WriteCSV(w io.Writer) {
	writeCSV(w, "n_tasks", "benchmarks", "invalid", "invalid_pct", "rescued_by_backtracking")
	for _, row := range r.Rows {
		writeCSV(w, row.N, row.Benchmarks, row.Invalid, row.InvalidPct, row.Rescued)
	}
}
