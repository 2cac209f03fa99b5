package codesign

import (
	"math"
	"reflect"
	"testing"

	"ctrlsched/internal/assign"
	"ctrlsched/internal/plant"
	"ctrlsched/internal/rta"
)

// paperScenario is the example's DC-servo co-design: two existing loops
// (inverted pendulum at 8 ms, fast servo at 10 ms) plus a new DC servo
// whose period is to be chosen. The grid deliberately includes 8 ms —
// deadline-schedulable but inside the stability-anomaly hole (its
// jitter-margin slope a ≈ 59 makes every assignment unstable) — so the
// engine must select a longer period than the shortest schedulable one.
func paperScenario() ([]BaseTask, []LoopSpec) {
	base := []BaseTask{
		{Task: rta.Task{Name: "pendulum", BCET: 0.7 * 0.0024, WCET: 0.0024, Period: 0.008}, Plant: plant.InvertedPendulum()},
		{Task: rta.Task{Name: "fast-servo", BCET: 0.7 * 0.0030, WCET: 0.0030, Period: 0.010}, Plant: plant.FastServo()},
	}
	loops := []LoopSpec{{
		Name:  "new-servo",
		Plant: plant.DCServo(),
		BCET:  0.7 * 0.0015,
		WCET:  0.0015,
		Periods: []float64{
			0.005, 0.006, 0.008, 0.009, 0.010, 0.012, 0.016,
		},
	}}
	return base, loops
}

func runScenario(t *testing.T, opt Options) *Result {
	t.Helper()
	base, loops := paperScenario()
	res, err := Run(base, loops, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestPunchline pins the paper's co-design claim end to end: the
// selected period is schedulable but NOT the shortest schedulable
// candidate, because the shortest schedulable one (8 ms) admits no
// stable priority assignment.
func TestPunchline(t *testing.T) {
	res := runScenario(t, Options{Seed: 42, Horizon: 1, Workers: 2, Refine: 1})
	if !res.Feasible {
		t.Fatal("no feasible configuration found")
	}
	if !res.CosimStable {
		t.Fatal("winner failed the co-simulation stability check")
	}
	selected := res.Periods[0]

	shortestSched := math.Inf(1)
	var selCand *Candidate
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.Schedulable && c.Period < shortestSched {
			shortestSched = c.Period
		}
		if c.Period == selected {
			selCand = c
		}
	}
	if selCand == nil {
		t.Fatalf("selected period %v not in the candidate table", selected)
	}
	if !selCand.Schedulable || !selCand.Stable {
		t.Fatalf("selected candidate not schedulable+stable: %+v", *selCand)
	}
	if shortestSched != 0.008 {
		t.Fatalf("scenario drifted: shortest schedulable candidate = %v, want 0.008", shortestSched)
	}
	if selected <= shortestSched {
		t.Fatalf("selected period %v is not longer than the shortest schedulable %v", selected, shortestSched)
	}
	// The 8 ms hole itself: schedulable, yet no stable assignment.
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.Period == 0.008 {
			if !c.Schedulable || c.Stable {
				t.Fatalf("8 ms anomaly hole not reproduced: %+v", *c)
			}
		}
	}
	// The winning configuration satisfies every constraint exactly.
	for _, tr := range res.Tasks {
		if tr.Slack < 0 {
			t.Fatalf("task %s has negative stability slack %v in the winner", tr.Name, tr.Slack)
		}
	}
	if got := len(res.Priorities); got != 3 {
		t.Fatalf("priority vector length %d, want 3", got)
	}
}

// TestDeterminismAcrossWorkers pins the engine's core promise: identical
// inputs produce deeply identical results for any worker count.
func TestDeterminismAcrossWorkers(t *testing.T) {
	opt := Options{Seed: 7, Horizon: 0.5, Refine: 1, MaxIters: 3}
	opt.Workers = 1
	a := runScenario(t, opt)
	opt.Workers = 8
	b := runScenario(t, opt)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results differ across worker counts:\n%+v\nvs\n%+v", a, b)
	}
	// And across repetitions.
	c := runScenario(t, opt)
	if !reflect.DeepEqual(b, c) {
		t.Fatal("results differ across repetitions")
	}
}

func TestSelectedBeatsNeighbors(t *testing.T) {
	res := runScenario(t, Options{Seed: 1, Horizon: 0.5, Workers: 2})
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	var best *Candidate
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.Period == res.Periods[0] {
			best = c
		}
	}
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.Stable && c.Objective < best.Objective {
			t.Fatalf("candidate %v has lower objective %v than the selected %v (%v)",
				c.Period, c.Objective, best.Period, best.Objective)
		}
	}
	if res.TotalCost != best.Objective {
		t.Fatalf("TotalCost %v != selected candidate objective %v", res.TotalCost, best.Objective)
	}
}

func TestRefinementAddsCandidates(t *testing.T) {
	noRef := runScenario(t, Options{Seed: 1, Horizon: 0.5, Workers: 2, Refine: 0})
	ref := runScenario(t, Options{Seed: 1, Horizon: 0.5, Workers: 2, Refine: 1})
	if len(ref.Candidates) <= len(noRef.Candidates) {
		t.Fatalf("refinement added no candidates: %d vs %d", len(ref.Candidates), len(noRef.Candidates))
	}
	refined := false
	for _, c := range ref.Candidates {
		if c.Refined {
			refined = true
		}
	}
	if !refined {
		t.Fatal("no candidate marked Refined")
	}
	if ref.TotalCost > noRef.TotalCost {
		t.Fatalf("refinement worsened the objective: %v > %v", ref.TotalCost, noRef.TotalCost)
	}
}

func TestInfeasibleGrid(t *testing.T) {
	base, loops := paperScenario()
	// Only periods inside the unstable/unassignable short range.
	loops[0].Periods = []float64{0.005, 0.006}
	res, err := Run(base, loops, Options{Seed: 1, Horizon: 0.5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("expected infeasible, got periods %v", res.Periods)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("want 2 diagnosed candidates, got %d", len(res.Candidates))
	}
	if res.Tasks != nil || res.Priorities != nil {
		t.Fatal("infeasible result carries a configuration")
	}
}

func TestInputValidation(t *testing.T) {
	base, loops := paperScenario()
	if _, err := Run(base, nil, Options{}); err == nil {
		t.Fatal("no loops accepted")
	}
	bad := loops
	bad[0].Periods = nil
	if _, err := Run(base, bad, Options{}); err == nil {
		t.Fatal("empty grid accepted")
	}
	_, loops = paperScenario()
	loops[0].BCET = 0
	if _, err := Run(base, loops, Options{}); err == nil {
		t.Fatal("zero BCET accepted")
	}
	_, loops = paperScenario()
	loops[0].Periods = []float64{0.01, -0.01}
	if _, err := Run(base, loops, Options{}); err == nil {
		t.Fatal("negative period accepted")
	}
}

func TestAbort(t *testing.T) {
	base, loops := paperScenario()
	abort := make(chan struct{})
	close(abort)
	_, err := Run(base, loops, Options{Seed: 1, Horizon: 0.5, Workers: 2, Abort: abort})
	if err == nil {
		t.Fatal("aborted run returned no error")
	}
}

// TestCustomAssignMethod exercises a non-backtracking AssignFunc.
func TestCustomAssignMethod(t *testing.T) {
	base, loops := paperScenario()
	res, err := Run(base, loops, Options{
		Seed: 1, Horizon: 0.5, Workers: 2,
		Assign: func(_ *assign.Searcher, tasks []rta.Task) assign.Result {
			return assign.AudsleyGreedy(tasks)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("greedy assignment found nothing on the paper scenario")
	}
}

// TestProgressMonotone checks the progress contract: monotone deliveries
// ending exactly at done == total.
func TestProgressMonotone(t *testing.T) {
	base, loops := paperScenario()
	last, lastTotal, calls := -1, 0, 0
	_, err := Run(base, loops, Options{
		Seed: 1, Horizon: 0.5, Workers: 2, Refine: 1,
		Progress: func(done, total int) {
			calls++
			if done < last {
				t.Fatalf("progress went backwards: %d after %d", done, last)
			}
			if lastTotal != 0 && total != lastTotal {
				t.Fatalf("total changed mid-run: %d -> %d", lastTotal, total)
			}
			last, lastTotal = done, total
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || last != lastTotal {
		t.Fatalf("final progress %d/%d after %d calls", last, lastTotal, calls)
	}
}

// TestUnstabilizableCandidateKeepsInfiniteEmpirical guards the
// diagnostics sweep against flattering design-less candidates: a
// pathological-sampling grid point (Kalman's kπ/ω for the oscillator)
// has no design, so its empirical cost must stay +Inf instead of
// summing only the other loops' costs.
func TestUnstabilizableCandidateKeepsInfiniteEmpirical(t *testing.T) {
	pathological := math.Pi / 10 // oscillator-10: reachability lost here
	loops := []LoopSpec{{
		Name:    "osc",
		Plant:   plant.HarmonicOscillator(10),
		BCET:    0.002,
		WCET:    0.004,
		Periods: []float64{0.05, pathological},
	}}
	res, err := Run(nil, loops, Options{Seed: 1, Horizon: 0.5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("healthy candidate not selected")
	}
	var patho *Candidate
	for i := range res.Candidates {
		if res.Candidates[i].Period == pathological {
			patho = &res.Candidates[i]
		}
	}
	if patho == nil {
		t.Fatal("pathological candidate missing from the table")
	}
	if patho.Note != "unstabilizable" || patho.Feasible {
		t.Fatalf("pathological period not flagged: %+v", *patho)
	}
	if !math.IsInf(patho.Empirical, 1) || !math.IsInf(patho.Objective, 1) {
		t.Fatalf("design-less candidate got a finite score: %+v", *patho)
	}
}

// TestDiagnoseUsesRequestMethod is the regression test for the
// candidate-table bug where diagnose computed Schedulable with
// DefaultAssign regardless of the method the request selected. With an
// assignment method that admits nothing, every candidate must report
// Schedulable == false — under the old code the backtracking search
// still found valid assignments and the table lied.
func TestDiagnoseUsesRequestMethod(t *testing.T) {
	base, loops := paperScenario()
	res, err := Run(base, loops, Options{
		Seed: 1, Horizon: 0.5, Workers: 2,
		Assign: func(_ *assign.Searcher, tasks []rta.Task) assign.Result {
			return assign.Result{} // rejects every task set
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("reject-all assignment cannot yield a feasible configuration")
	}
	if len(res.Candidates) == 0 {
		t.Fatal("candidate table empty")
	}
	for _, c := range res.Candidates {
		if c.Schedulable {
			t.Fatalf("candidate %v reports Schedulable under a reject-all method — diagnose is not using the request's assigner", c.Period)
		}
	}
}

// TestConvergenceTrace checks the shape and internal consistency of the
// per-sweep trace: one entry per iteration, cumulative evaluation counts,
// and a final incumbent matching the reported objective.
func TestConvergenceTrace(t *testing.T) {
	res := runScenario(t, Options{Seed: 42, Horizon: 0.5, Workers: 2, Refine: 1})
	if len(res.Trace) != res.Iterations {
		t.Fatalf("trace has %d entries, want one per iteration (%d)", len(res.Trace), res.Iterations)
	}
	prevEvals := 0
	for i, sw := range res.Trace {
		if sw.Sweep != i+1 {
			t.Fatalf("trace[%d].Sweep = %d, want %d", i, sw.Sweep, i+1)
		}
		if sw.Evaluations < prevEvals {
			t.Fatalf("trace[%d] evaluation count %d decreased from %d", i, sw.Evaluations, prevEvals)
		}
		prevEvals = sw.Evaluations
		if sw.GridSize < 7 {
			t.Fatalf("trace[%d] grid size %d below the initial grid", i, sw.GridSize)
		}
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Evaluations != res.Evaluations {
		t.Fatalf("final trace evaluations %d != result evaluations %d", last.Evaluations, res.Evaluations)
	}
	if res.Feasible && last.Objective != res.TotalCost {
		t.Fatalf("final incumbent %v != total cost %v", last.Objective, res.TotalCost)
	}
	// The incumbent objective never worsens sweep over sweep.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Objective > res.Trace[i-1].Objective {
			t.Fatalf("incumbent worsened: sweep %d %v -> sweep %d %v",
				i, res.Trace[i-1].Objective, i+1, res.Trace[i].Objective)
		}
	}
}
