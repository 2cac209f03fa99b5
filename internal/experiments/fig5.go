package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ctrlsched/internal/assign"
	"ctrlsched/internal/campaign"
	"ctrlsched/internal/rta"
)

// Fig5Row is one abscissa of the paper's Fig. 5: the wall-clock time each
// priority-assignment algorithm needs for a whole benchmark campaign at
// one task-set size, plus the evaluation counts that explain the scaling.
type Fig5Row struct {
	N          int `json:"n"`
	Benchmarks int `json:"benchmarks"`

	UnsafeSeconds       float64 `json:"unsafe_seconds"`
	BacktrackingSeconds float64 `json:"backtracking_seconds"`

	UnsafeEvaluations       int64 `json:"unsafe_evals"` // total exact RTA evaluations
	BacktrackingEvaluations int64 `json:"backtracking_evals"`
	Backtracks              int64 `json:"backtracks"`
}

// Fig5Config parameterizes the runtime experiment. Zero values default to
// the paper's n = 4…20 sweep; Benchmarks defaults to 1000 per size (the
// paper used 10 000 on a 3.6 GHz quad-core; scale up via the CLI flag to
// match). The suite and the evaluation counts are worker-count
// invariant; the measured seconds are the wall-clock time of the
// parallel campaign, so they shrink with Exec.Workers.
type Fig5Config struct {
	Benchmarks int     `json:"benchmarks"`
	Sizes      []int   `json:"sizes"`
	Seed       int64   `json:"seed"`
	GenSpec    GenSpec `json:"gen"`
}

// Normalized returns the request identity of this configuration (see
// Table1Config.Normalized).
func (c Fig5Config) Normalized() Fig5Config {
	if c.Benchmarks == 0 {
		c.Benchmarks = 1000
	}
	if c.Sizes == nil {
		c.Sizes = []int{4, 6, 8, 10, 12, 14, 16, 18, 20}
	}
	c.GenSpec = c.GenSpec.Normalized()
	return c
}

// Fig5Result is the typed outcome of the runtime experiment. The
// seconds columns are genuine wall-clock measurements and therefore the
// one non-deterministic part of any result in this package; StripTimings
// removes them when byte-stable output is required (golden files).
type Fig5Result struct {
	Meta   Meta       `json:"meta"`
	Config Fig5Config `json:"config"`
	Rows   []Fig5Row  `json:"rows"`
}

// StripTimings zeroes the wall-clock columns, leaving only the
// deterministic suite-derived counts. Golden regression files and
// cross-worker-count comparisons use the stripped form.
func (r *Fig5Result) StripTimings() {
	for i := range r.Rows {
		r.Rows[i].UnsafeSeconds = 0
		r.Rows[i].BacktrackingSeconds = 0
	}
}

// Fig5 measures the campaign runtime of Unsafe Quadratic versus the
// backtracking Algorithm 1. Both algorithms run on identical pre-generated
// benchmark suites, so the comparison is paired and generation time is
// excluded from the timings.
//
// Following the paper's framing — "Algorithm 1 finds a valid solution in
// less than 2 seconds", i.e. its campaign consists of solvable benchmarks
// — the suite is filtered to instances for which a stable assignment
// exists. Without the filter the measurement would be dominated by
// exhaustive infeasibility proofs, which the paper's figure clearly does
// not include (its backtracking curve stays within 2 s at n = 20). The
// filter uses a budgeted memoized search whose time is NOT counted.
func Fig5(cfg Fig5Config, x Exec) Fig5Result {
	c := cfg.Normalized()
	gen := x.generator(c.GenSpec)
	gen.WarmWorkers(x.Workers)
	// Three passes per size (suite generation and the two timed phases),
	// all reported as one run's progress.
	total := len(c.Sizes) * c.Benchmarks * 3
	rows := make([]Fig5Row, 0, len(c.Sizes))
	for si, n := range c.Sizes {
		base := si * c.Benchmarks * 3
		row := Fig5Row{N: n, Benchmarks: c.Benchmarks}
		// Rejection-sample the suite on the worker pool: benchmark k keeps
		// drawing from its own deterministic RNG until a solvable instance
		// appears, so the suite is identical for every worker count.
		opts := x.options(campaign.ItemSeed(c.Seed, n), base, total)
		suite, _ := campaign.Map(c.Benchmarks, opts, func(_ int, rng *rand.Rand) []rta.Task {
			for {
				tasks := gen.TaskSet(rng, n)
				probe := assign.BacktrackingOpts(tasks, assign.Options{
					Memoize:        true,
					MaxEvaluations: 5000,
				})
				if probe.Valid {
					return tasks
				}
			}
		})

		// The timed phases run on the same pool via MapPlain: both
		// algorithms are deterministic, and skipping per-item RNG
		// construction keeps generator setup out of the measured window.
		start := time.Now()
		uqEvals, _ := campaign.MapPlain(len(suite), x.options(0, base+c.Benchmarks, total), func(i int) int64 {
			return int64(assign.UnsafeQuadratic(suite[i]).Stats.Evaluations)
		})
		row.UnsafeSeconds = time.Since(start).Seconds()
		for _, e := range uqEvals {
			row.UnsafeEvaluations += e
		}

		start = time.Now()
		btStats, _ := campaign.MapPlain(len(suite), x.options(0, base+2*c.Benchmarks, total), func(i int) [2]int64 {
			res := assign.Backtracking(suite[i])
			return [2]int64{int64(res.Stats.Evaluations), int64(res.Stats.Backtracks)}
		})
		row.BacktrackingSeconds = time.Since(start).Seconds()
		for _, s := range btStats {
			row.BacktrackingEvaluations += s[0]
			row.Backtracks += s[1]
		}
		rows = append(rows, row)
	}
	return Fig5Result{
		Meta:   Meta{Kind: KindFig5, Schema: SchemaVersion, Seed: c.Seed, Items: total},
		Config: c,
		Rows:   rows,
	}
}

// Kind identifies the experiment that produced this result.
func (r Fig5Result) Kind() string { return KindFig5 }

// WriteCSV emits the rows as CSV.
func (r Fig5Result) WriteCSV(w io.Writer) {
	writeCSV(w, "n_tasks", "benchmarks", "unsafe_seconds", "backtracking_seconds",
		"unsafe_evals", "backtracking_evals", "backtracks")
	for _, row := range r.Rows {
		writeCSV(w, row.N, row.Benchmarks, row.UnsafeSeconds, row.BacktrackingSeconds,
			row.UnsafeEvaluations, row.BacktrackingEvaluations, row.Backtracks)
	}
}

// Render prints the runtime comparison with the paper's layout: both
// series against the number of tasks.
func (r Fig5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 5 — campaign execution time (s) vs number of tasks")
	fmt.Fprintf(w, "  %4s %12s %14s %14s %14s %12s\n",
		"n", "benchmarks", "UnsafeQuad(s)", "Backtrack(s)", "BT evals", "backtracks")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %4d %12d %14.4f %14.4f %14d %12d\n",
			row.N, row.Benchmarks, row.UnsafeSeconds, row.BacktrackingSeconds,
			row.BacktrackingEvaluations, row.Backtracks)
	}
	xs := make([]float64, len(r.Rows))
	y1 := make([]float64, len(r.Rows))
	y2 := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		xs[i] = float64(row.N)
		y1[i] = row.UnsafeSeconds
		y2[i] = row.BacktrackingSeconds
	}
	asciiPlot(w, xs, y1, 60, 10, false, "  Unsafe Quadratic")
	asciiPlot(w, xs, y2, 60, 10, false, "  Backtracking (Algorithm 1)")
}
