// Package codesign implements the paper's co-design loop: choosing the
// sampling periods of new control loops together with the priority
// assignment of the whole task set, instead of analyzing a fixed design.
// The punchline it operationalizes is the paper's: the best sampling
// period is NOT the shortest schedulable one — the jitter-margin
// stability constraint (Eq. 5) and the scheduling-induced delay can make
// a shorter, deadline-feasible period strictly worse, or outright
// unstable (the non-monotone anomaly holes of Sec. IV).
//
// # Objective
//
// Each candidate loop carries an LQG design per candidate period (cost
// J(h), paper Fig. 2) and a jitter-margin constraint L + a·J ≤ b. For a
// full configuration (one period per loop, one priority order), exact
// response-time analysis yields every task's worst-case delay L + J, and
// the objective is the total delay-aware LQG cost
//
//	Σᵢ DelayedCost(designᵢ, Lᵢ + Jᵢ)
//
// — each loop's stationary cost when its actuation lags by its
// worst-case response time (lqg.DelayedCost). The objective is exact for
// constant delays, grows steeply as a loop approaches its stability
// limit, and is +Inf for configurations violating a deadline or
// stability constraint.
//
// # Search
//
// Alternating minimization in the style of block-coordinate descent
// (cf. the alternating schemes in PAPERS.md):
//
//	(a) per-loop period selection: one loop's candidate grid is swept
//	    with every other loop frozen, fanned out over the campaign pool;
//	(b) priority re-assignment: each candidate configuration is assigned
//	    by the paper's backtracking Algorithm 1 (internal/assign) and
//	    then improved by deterministic pairwise-swap descent on the
//	    delay-aware objective.
//
// Each sweep's per-loop cost curve — the objective of every (loop,
// candidate) pair against a frozen context — is kept in a per-run memo.
// When a later sweep revisits a loop whose context did not change, the
// whole curve is answered from the memo instead of re-evaluating the
// grid; after the sweeps converge at the current resolution the grid
// brackets the incumbent and bisects toward each neighbor (midpoint
// refinement), so only the newly inserted candidates cost anything. The
// memoized values are exactly the values re-evaluation would produce, so
// the selected designs are identical to the exhaustive re-grid search.
//
// Sweeps repeat until a full pass changes nothing, then the grid refines
// around the incumbent and the sweeps continue, up to the configured
// budgets. Everything is deterministic: fan-outs collect in item order,
// ties break toward the shorter period, and the co-simulation passes
// derive their seeds from the request seed and the candidate's stable
// index (campaign.ItemSeed). The per-sweep incumbents are exposed as a
// convergence trace (Result.Trace).
//
// Inner iterations are allocation-conscious by construction: priority
// searches run through pooled assign.Searcher instances (reusable memo
// and candidate buffers), response-time analysis appends into pooled
// result slices (rta.AnalyzeAllInto), and delay-aware costs come from the
// process-wide kernel cache (lqg.DelayedCostCached), shared across
// sweeps, candidate searches and requests.
package codesign

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ctrlsched/internal/assign"
	"ctrlsched/internal/campaign"
	"ctrlsched/internal/cosim"
	"ctrlsched/internal/jitter"
	"ctrlsched/internal/lqg"
	"ctrlsched/internal/plant"
	"ctrlsched/internal/rta"
	"ctrlsched/internal/sim"
)

// ErrInternal marks failures of the engine's own machinery — e.g. the
// winner's validation co-simulation rejecting inputs the engine itself
// constructed — as opposed to malformed caller input. Transports should
// map errors.Is(err, ErrInternal) to a server-side failure (HTTP 500),
// not a caller error.
var ErrInternal = errors.New("codesign: internal error")

// internalError wraps an engine-internal failure so errors.Is(err,
// ErrInternal) holds while the concrete message and cause chain are
// preserved.
type internalError struct{ err error }

func (e *internalError) Error() string { return e.err.Error() }

func (e *internalError) Unwrap() error { return e.err }

func (e *internalError) Is(target error) bool { return target == ErrInternal }

// BaseTask is one task of the existing workload. Its period and
// execution-time bounds are fixed; only its priority is re-decided. When
// Plant is non-nil the task is a control loop: it is co-simulated in the
// validation passes, its delay-aware cost joins the objective, and — if
// Task.ConA and Task.ConB are both zero — its stability constraint is
// derived from the plant's jitter margin at Task.Period. A plain task
// (nil Plant) with a zero constraint defaults to the implicit deadline
// L + J ≤ period and participates as schedulable interference only.
type BaseTask struct {
	Task  rta.Task
	Plant *plant.Plant
}

// LoopSpec is one candidate control loop whose sampling period is the
// decision variable: the plant, the execution-time bounds of its control
// task, and the candidate period grid.
type LoopSpec struct {
	Name       string
	Plant      *plant.Plant
	BCET, WCET float64
	Periods    []float64
}

// AssignFunc produces a priority assignment for one candidate task set.
// searcher is a pooled, worker-local assign.Searcher; implementations
// built on backtracking should search through it so repeated inner
// evaluations reuse its buffers (methods that do not need it may ignore
// it).
type AssignFunc func(searcher *assign.Searcher, tasks []rta.Task) assign.Result

// DefaultAssign is the engine default: the paper's backtracking
// Algorithm 1, memoized and budgeted.
func DefaultAssign(s *assign.Searcher, tasks []rta.Task) assign.Result {
	return s.Backtracking(tasks, assign.Options{Memoize: true, MaxEvaluations: 2_000_000})
}

// Options tunes a synthesis run. The zero value picks the defaults.
type Options struct {
	// Assign chooses the priority-assignment method (default
	// DefaultAssign).
	Assign AssignFunc
	// MaxIters bounds the alternating sweeps over all loops (default 4).
	MaxIters int
	// Refine is the number of grid-refinement rounds inserted after the
	// sweeps converge at the current resolution; 0 (the default)
	// disables refinement and searches the given grid only.
	Refine int
	// Horizon is the co-simulation span in seconds for the empirical
	// validation passes (default 2).
	Horizon float64
	// SubSteps forwards to cosim.Config (default 40).
	SubSteps int
	// Seed drives every co-simulation; candidate i simulates with
	// campaign.ItemSeed(Seed, i), so per-candidate results are
	// reproducible independently of scheduling order.
	Seed int64
	// Workers is the fan-out width of every candidate evaluation
	// (default all CPUs). Results never depend on it.
	Workers int
	// Progress, when non-nil, receives monotone per-evaluation progress:
	// done evaluations out of a deterministic upper-bound total. The
	// final call reports done == total.
	Progress func(done, total int)
	// Abort, when non-nil and closed, stops the run; Run then returns
	// campaign.ErrAborted (possibly wrapped).
	Abort <-chan struct{}
}

func (o Options) withDefaults() Options {
	if o.Assign == nil {
		o.Assign = DefaultAssign
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 4
	}
	if o.Refine < 0 {
		o.Refine = 0
	}
	if o.Horizon <= 0 {
		o.Horizon = 2
	}
	return o
}

// Candidate is the evaluated record of one (loop, period) pair.
type Candidate struct {
	// Loop indexes the LoopSpec this candidate belongs to.
	Loop int
	// Period is the candidate sampling period (s).
	Period float64
	// Cost is the standalone LQG cost density J(h) (+Inf when no
	// stabilizing design exists at this period).
	Cost float64
	// ConA and ConB are the jitter-margin constraint coefficients (zero
	// when the margin analysis failed).
	ConA, ConB float64
	// Feasible reports that the candidate has a design and a margin.
	Feasible bool
	// Note explains infeasibility: "unstabilizable", "no jitter margin",
	// or "wcet exceeds period".
	Note string
	// Refined marks candidates inserted by grid refinement.
	Refined bool

	// The diagnostics below describe the configuration with this
	// candidate substituted for its loop and every other loop at its
	// selected period.

	// Schedulable reports that a deadline-feasible priority assignment
	// exists (stability ignored) — the paper's plain schedulability.
	Schedulable bool
	// Stable reports that a stability-constrained assignment exists.
	Stable bool
	// Objective is the total delay-aware LQG cost under the best found
	// assignment (+Inf when not stable).
	Objective float64
	// Empirical is the co-simulated total cost under deterministic
	// per-candidate seeding (+Inf when a designed loop diverges or no
	// assignment exists to simulate).
	Empirical float64
}

// TaskResult is the winning configuration's outcome for one task.
type TaskResult struct {
	Name       string
	Period     float64
	Priority   int
	ConA, ConB float64
	WCRT       float64
	Latency    float64
	Jitter     float64
	Slack      float64
	// StandaloneCost and DelayAwareCost are zero-delay and worst-case-
	// delay LQG cost densities; EmpiricalCost and MaxState come from the
	// validation co-simulation. All are meaningful only when Designed.
	StandaloneCost float64
	DelayAwareCost float64
	EmpiricalCost  float64
	MaxState       float64
	Designed       bool
}

// SweepTrace records the optimizer's state after one alternating sweep:
// the incumbent objective, the cumulative number of configuration
// evaluations, and the candidate-grid size (which grows when midpoint
// refinement inserts candidates around the incumbent).
type SweepTrace struct {
	// Sweep is the 1-based sweep number.
	Sweep int
	// Objective is the incumbent total delay-aware cost after the sweep
	// (+Inf until a stable configuration has been found).
	Objective float64
	// Evaluations is the cumulative configuration-evaluation count.
	Evaluations int
	// GridSize is the total candidate count across all loops.
	GridSize int
}

// Result is the outcome of one synthesis run.
type Result struct {
	// Feasible reports that a stable configuration was found; when
	// false, Periods/Priorities/Tasks are empty and Candidates carries
	// the per-candidate diagnosis.
	Feasible bool
	// Periods holds the selected period per candidate loop.
	Periods []float64
	// Priorities is the selected assignment over the task vector
	// [base tasks..., candidate loops...] (1 = lowest).
	Priorities []int
	// TotalCost is the winner's total delay-aware LQG cost.
	TotalCost float64
	// Iterations counts completed alternating sweeps, Evaluations the
	// configuration evaluations (assignment + objective) performed.
	Iterations  int
	Evaluations int
	// Converged reports that the final sweep changed nothing (as opposed
	// to stopping on the iteration budget).
	Converged bool
	// CosimStable reports that every designed loop survived the
	// validation co-simulation without divergence.
	CosimStable bool
	// Trace is the per-sweep convergence record (empty when no feasible
	// starting configuration exists).
	Trace      []SweepTrace
	Candidates []Candidate
	Tasks      []TaskResult
}

// sweepKey identifies one point of a loop's sweep cost curve: candidate
// cand substituted into loop `loop`, with every other loop frozen at the
// context encoded by ctx. Keeping the curve keyed by context makes later
// sweeps over an unchanged context free while guaranteeing that a
// context change (another loop moved) re-evaluates honestly.
type sweepKey struct {
	loop, cand int
	ctx        string
}

// sweepVal is a memoized evalConfig outcome. prio is owned by the memo
// and must be treated as read-only by callers.
type sweepVal struct {
	obj  float64
	prio []int
}

// evalCtx is the pooled per-evaluation scratch: the assignment searcher
// and the task/design/result buffers.
type evalCtx struct {
	searcher assign.Searcher
	tasks    []rta.Task
	designs  []*lqg.Design
	rs       []rta.Result
}

type engine struct {
	opt   Options
	base  []rta.Task
	baseD []*lqg.Design
	loops []LoopSpec

	cands   []Candidate
	designs []*lqg.Design // indexed like cands
	byLoop  [][]int       // candidate indices per loop, sorted by period

	pool sync.Pool

	curveMu   sync.Mutex
	curveMemo map[sweepKey]sweepVal

	evals atomic.Int64

	done, total int
}

// Run synthesizes periods and priorities for the candidate loops on top
// of the base workload. See the package comment for the algorithm.
func Run(base []BaseTask, loops []LoopSpec, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if len(loops) == 0 {
		return nil, fmt.Errorf("codesign: at least one candidate loop required")
	}
	if len(base)+len(loops) > assign.MaxTasks {
		return nil, fmt.Errorf("codesign: %d tasks exceed the %d-task limit", len(base)+len(loops), assign.MaxTasks)
	}
	for i, lp := range loops {
		if lp.Plant == nil {
			return nil, fmt.Errorf("codesign: loop %d: plant required", i)
		}
		if !(lp.BCET > 0 && lp.BCET <= lp.WCET) {
			return nil, fmt.Errorf("codesign: loop %d: need 0 < bcet ≤ wcet, got [%v, %v]", i, lp.BCET, lp.WCET)
		}
		if len(lp.Periods) == 0 {
			return nil, fmt.Errorf("codesign: loop %d: empty candidate period grid", i)
		}
		for _, h := range lp.Periods {
			if !(h > 0) {
				return nil, fmt.Errorf("codesign: loop %d: candidate period %v must be positive", i, h)
			}
		}
	}

	e := &engine{
		opt:       opt,
		loops:     loops,
		curveMemo: make(map[sweepKey]sweepVal),
	}
	e.pool.New = func() any { return new(evalCtx) }

	// Resolve the base workload: designs for plant-backed tasks,
	// margin-derived (or implicit-deadline) constraints.
	e.base = make([]rta.Task, len(base))
	e.baseD = make([]*lqg.Design, len(base))
	for i, b := range base {
		t := b.Task
		if b.Plant != nil {
			d, err := lqg.SynthesizeCached(b.Plant, t.Period)
			if err != nil {
				return nil, fmt.Errorf("codesign: base task %s: no design at period %v: %w", t.Name, t.Period, err)
			}
			if t.ConA == 0 && t.ConB == 0 {
				m, err := jitter.AnalyzeCached(d, jitter.Options{})
				if err != nil {
					return nil, fmt.Errorf("codesign: base task %s: no jitter margin at period %v: %w", t.Name, t.Period, err)
				}
				t.ConA, t.ConB = m.A, m.B
			}
			e.baseD[i] = d
		} else if t.ConA == 0 && t.ConB == 0 {
			t.ConA, t.ConB = 1, t.Period
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("codesign: %w", err)
		}
		e.base[i] = t
	}

	// Candidate table: the per-loop grids, sorted ascending and deduped.
	e.byLoop = make([][]int, len(loops))
	for l, lp := range loops {
		hs := append([]float64(nil), lp.Periods...)
		sort.Float64s(hs)
		for _, h := range hs {
			if k := len(e.byLoop[l]); k > 0 && h == e.cands[e.byLoop[l][k-1]].Period {
				continue
			}
			e.byLoop[l] = append(e.byLoop[l], len(e.cands))
			e.cands = append(e.cands, Candidate{Loop: l, Period: h})
			e.designs = append(e.designs, nil)
		}
	}

	// Deterministic progress budget (an upper bound; done jumps to total
	// on completion).
	var initial, maxGrid int
	for _, g := range e.byLoop {
		initial += len(g)
		maxGrid += len(g) + 2*opt.Refine
	}
	e.total = (initial + 2*len(loops)*opt.Refine) + opt.MaxIters*maxGrid + maxGrid + 1

	res, err := e.run()
	if err != nil {
		return nil, err
	}
	e.progressDone()
	return res, nil
}

func (e *engine) progress(done int) {
	if e.opt.Progress != nil {
		e.opt.Progress(done, e.total)
	}
}

func (e *engine) progressDone() {
	e.done = e.total
	e.progress(e.total)
}

// fan runs fn over n items on the campaign pool with engine-level
// progress accounting; it returns campaign.ErrAborted when aborted.
func (e *engine) fan(n int, fn func(i int)) error {
	base := e.done
	_, err := campaign.MapPlain(n, campaign.Options{
		Workers: e.opt.Workers,
		Abort:   e.opt.Abort,
		OnProgress: func(done, _ int) {
			e.progress(base + done)
		},
	}, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
	e.done = base + n
	return err
}

// evalMargins synthesizes designs and jitter margins for the given
// candidate indices, fanning every candidate out over the pool
// independently.
func (e *engine) evalMargins(idxs []int) error {
	return e.fan(len(idxs), func(k int) {
		e.evalMargin(idxs[k])
	})
}

// evalMargin evaluates one candidate: synthesis, standalone cost, and
// jitter margin.
func (e *engine) evalMargin(i int) {
	c := &e.cands[i]
	lp := e.loops[c.Loop]
	if lp.WCET > c.Period {
		c.Cost, c.Note = math.Inf(1), "wcet exceeds period"
		c.Objective, c.Empirical = math.Inf(1), math.Inf(1)
		return
	}
	d, err := lqg.SynthesizeCached(lp.Plant, c.Period)
	if err != nil {
		c.Cost, c.Note = math.Inf(1), "unstabilizable"
		c.Objective, c.Empirical = math.Inf(1), math.Inf(1)
		return
	}
	c.Cost = d.Cost
	m, err := jitter.AnalyzeCached(d, jitter.Options{})
	if err != nil {
		c.Note = "no jitter margin"
		c.Objective, c.Empirical = math.Inf(1), math.Inf(1)
		return
	}
	c.ConA, c.ConB = m.A, m.B
	c.Feasible = true
	c.Objective, c.Empirical = math.Inf(1), math.Inf(1)
	e.designs[i] = d
}

// buildTasks assembles the task vector for a configuration: sel holds
// the candidate index per loop, with loop `override` (when ≥ 0)
// substituted by candidate index cand.
func (e *engine) buildTasks(ctx *evalCtx, sel []int, override, cand int) ([]rta.Task, []*lqg.Design) {
	n := len(e.base) + len(e.loops)
	if cap(ctx.tasks) < n {
		ctx.tasks = make([]rta.Task, 0, n)
		ctx.designs = make([]*lqg.Design, 0, n)
	}
	tasks := append(ctx.tasks[:0], e.base...)
	designs := append(ctx.designs[:0], e.baseD...)
	for l, lp := range e.loops {
		gi := sel[l]
		if l == override {
			gi = cand
		}
		c := &e.cands[gi]
		tasks = append(tasks, rta.Task{
			Name: lp.Name, BCET: lp.BCET, WCET: lp.WCET,
			Period: c.Period, ConA: c.ConA, ConB: c.ConB,
		})
		designs = append(designs, e.designs[gi])
	}
	ctx.tasks, ctx.designs = tasks, designs
	return tasks, designs
}

// configCost evaluates one fully specified configuration: exact RTA of
// every task under prio, +Inf if any deadline or stability constraint is
// violated, otherwise the total delay-aware LQG cost.
func (e *engine) configCost(ctx *evalCtx, tasks []rta.Task, designs []*lqg.Design, prio []int) float64 {
	e.evals.Add(1)
	ctx.rs = rta.AnalyzeAllInto(tasks, prio, ctx.rs[:0])
	for i := range tasks {
		if !ctx.rs[i].Stable {
			return math.Inf(1)
		}
	}
	total := 0.0
	for i, d := range designs {
		if d != nil {
			total += lqg.DelayedCostCached(d, ctx.rs[i].WCRT)
		}
	}
	return total
}

// evalConfig runs step (b) for one configuration: backtracking
// assignment, then deterministic pairwise-swap descent on the objective.
// It returns +Inf and nil when no stable assignment exists.
func (e *engine) evalConfig(sel []int, override, cand int) (float64, []int) {
	ctx := e.pool.Get().(*evalCtx)
	defer e.pool.Put(ctx)
	tasks, designs := e.buildTasks(ctx, sel, override, cand)
	res := e.opt.Assign(&ctx.searcher, tasks)
	if !res.Valid {
		return math.Inf(1), nil
	}
	prio := res.Priorities
	obj := e.configCost(ctx, tasks, designs, prio)
	if math.IsInf(obj, 1) {
		// The assignment method may validate with a tolerance the exact
		// re-analysis rejects; treat as infeasible.
		return math.Inf(1), nil
	}
	// Pairwise-swap descent: keep any swap that stays valid and strictly
	// lowers the objective. Deterministic scan order; at most n passes.
	n := len(prio)
	for pass := 0; pass < n; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				prio[i], prio[j] = prio[j], prio[i]
				if o := e.configCost(ctx, tasks, designs, prio); o < obj-1e-15 {
					obj, improved = o, true
				} else {
					prio[i], prio[j] = prio[j], prio[i]
				}
			}
		}
		if !improved {
			break
		}
	}
	return obj, prio
}

// ctxOf encodes the frozen context of a sweep over loop l: the selected
// candidate of every other loop, with l's own slot masked so the key is
// independent of where the swept loop currently sits.
func ctxOf(sel []int, l int) string {
	b := make([]byte, 0, 4*len(sel))
	for i, v := range sel {
		if i == l {
			v = -1
		}
		b = binary.AppendVarint(b, int64(v))
	}
	return string(b)
}

// evalConfigMemo is evalConfig through the per-run sweep-curve memo.
// The first sweep over a context evaluates the loop's full feasible grid
// and records its cost curve; later sweeps with an unchanged context —
// and the diagnostics pass over the winner — are answered from the
// curve. Memoized values are exactly what re-evaluation would return, so
// the search selects the same designs as exhaustive re-gridding. The
// returned priority slice is memo-owned: read-only for callers.
func (e *engine) evalConfigMemo(ctx string, sel []int, l, cand int) (float64, []int) {
	key := sweepKey{loop: l, cand: cand, ctx: ctx}
	e.curveMu.Lock()
	v, ok := e.curveMemo[key]
	e.curveMu.Unlock()
	if ok {
		return v.obj, v.prio
	}
	obj, prio := e.evalConfig(sel, l, cand)
	v = sweepVal{obj: obj, prio: append([]int(nil), prio...)}
	e.curveMu.Lock()
	e.curveMemo[key] = v
	e.curveMu.Unlock()
	return v.obj, v.prio
}

// feasibleOf lists the margin-feasible candidate indices of loop l.
func (e *engine) feasibleOf(l int) []int {
	var out []int
	for _, gi := range e.byLoop[l] {
		if e.cands[gi].Feasible {
			out = append(out, gi)
		}
	}
	return out
}

// refine inserts midpoint candidates around each loop's incumbent and
// margin-evaluates them; it reports whether anything was added.
func (e *engine) refine(sel []int) (bool, error) {
	var added []int
	for l := range e.loops {
		grid := e.byLoop[l]
		pos := -1
		for k, gi := range grid {
			if gi == sel[l] {
				pos = k
				break
			}
		}
		if pos < 0 {
			continue
		}
		cur := e.cands[sel[l]].Period
		for _, npos := range []int{pos - 1, pos + 1} {
			if npos < 0 || npos >= len(grid) {
				continue
			}
			mid := (cur + e.cands[grid[npos]].Period) / 2
			if math.Abs(mid-cur) < 1e-6*cur {
				continue
			}
			dup := false
			for _, gi := range e.byLoop[l] {
				if math.Abs(e.cands[gi].Period-mid) < 1e-12*mid {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			idx := len(e.cands)
			e.cands = append(e.cands, Candidate{Loop: l, Period: mid, Refined: true})
			e.designs = append(e.designs, nil)
			e.byLoop[l] = append(e.byLoop[l], idx)
			added = append(added, idx)
		}
		sort.Slice(e.byLoop[l], func(a, b int) bool {
			return e.cands[e.byLoop[l][a]].Period < e.cands[e.byLoop[l][b]].Period
		})
	}
	if len(added) == 0 {
		return false, nil
	}
	return true, e.evalMargins(added)
}

func (e *engine) run() (*Result, error) {
	all := make([]int, len(e.cands))
	for i := range all {
		all[i] = i
	}
	if err := e.evalMargins(all); err != nil {
		return nil, err
	}

	// Initial incumbents: the cheapest (by standalone cost, then by
	// shorter period) margin-feasible candidate per loop. A loop with no
	// feasible candidate falls back to its shortest period so the
	// diagnostics sweep still has a configuration to describe.
	sel := make([]int, len(e.loops))
	feasibleStart := true
	for l := range e.loops {
		feas := e.feasibleOf(l)
		if len(feas) == 0 {
			sel[l] = e.byLoop[l][0]
			feasibleStart = false
			continue
		}
		best := feas[0]
		for _, gi := range feas[1:] {
			if e.cands[gi].Cost < e.cands[best].Cost {
				best = gi
			}
		}
		sel[l] = best
	}

	res := &Result{}
	bestObj := math.Inf(1)
	var bestSel []int
	var bestPrio []int

	if feasibleStart {
		type step struct {
			obj  float64
			prio []int
		}
		for iter := 0; iter < e.opt.MaxIters; iter++ {
			changed := false
			for l := range e.loops {
				feas := e.feasibleOf(l)
				ctx := ctxOf(sel, l)
				out := make([]step, len(feas))
				if err := e.fan(len(feas), func(k int) {
					obj, prio := e.evalConfigMemo(ctx, sel, l, feas[k])
					out[k] = step{obj, prio}
				}); err != nil {
					return nil, err
				}
				bestK := -1
				for k := range out {
					if bestK < 0 || out[k].obj < out[bestK].obj {
						bestK = k
					}
				}
				if bestK < 0 || math.IsInf(out[bestK].obj, 1) {
					continue
				}
				if feas[bestK] != sel[l] {
					sel[l] = feas[bestK]
					changed = true
				}
				if out[bestK].obj < bestObj {
					bestObj = out[bestK].obj
					bestSel = append(bestSel[:0], sel...)
					bestPrio = append(bestPrio[:0], out[bestK].prio...)
				}
			}
			res.Iterations = iter + 1
			res.Trace = append(res.Trace, SweepTrace{
				Sweep:       iter + 1,
				Objective:   bestObj,
				Evaluations: int(e.evals.Load()),
				GridSize:    len(e.cands),
			})
			if !changed {
				if e.opt.Refine > 0 {
					e.opt.Refine--
					added, err := e.refine(sel)
					if err != nil {
						return nil, err
					}
					if added {
						continue
					}
				}
				res.Converged = true
				break
			}
		}
	}
	res.Feasible = bestSel != nil
	if res.Feasible {
		copy(sel, bestSel)
	}

	// Diagnostics sweep: every candidate, with its loop substituted into
	// the winning configuration — schedulability (deadlines only),
	// stability, objective, and a deterministically seeded empirical
	// co-simulation.
	if err := e.diagnose(sel); err != nil {
		return nil, err
	}

	res.Candidates = e.cands
	res.Evaluations = int(e.evals.Load())
	if !res.Feasible {
		return res, nil
	}

	res.TotalCost = bestObj
	res.Periods = make([]float64, len(e.loops))
	for l := range e.loops {
		res.Periods[l] = e.cands[sel[l]].Period
	}
	res.Priorities = bestPrio

	if err := e.validate(res, sel); err != nil {
		return nil, err
	}
	return res, nil
}

// diagnose fills the per-candidate diagnostics (see Candidate).
func (e *engine) diagnose(sel []int) error {
	var pairs []int
	for _, grid := range e.byLoop {
		pairs = append(pairs, grid...)
	}
	return e.fan(len(pairs), func(k int) {
		gi := pairs[k]
		c := &e.cands[gi]
		ctx := e.pool.Get().(*evalCtx)
		defer e.pool.Put(ctx)

		// Plain schedulability: same configuration, implicit deadlines.
		// The request's own assignment method decides the flag — using
		// the default backtracking here regardless of opt.Assign would
		// report schedulability under a different algorithm than the one
		// searching (and co-simulate under its priorities).
		tasks, designs := e.buildTasks(ctx, sel, c.Loop, gi)
		dtasks := append([]rta.Task(nil), tasks...)
		for i := range dtasks {
			dtasks[i].ConA, dtasks[i].ConB = 1, dtasks[i].Period
		}
		dres := e.opt.Assign(&ctx.searcher, dtasks)
		c.Schedulable = dres.Valid

		var simPrio []int
		if c.Feasible {
			obj, prio := e.evalConfigMemo(ctxOf(sel, c.Loop), sel, c.Loop, gi)
			c.Objective = obj
			c.Stable = !math.IsInf(obj, 1)
			simPrio = prio
		}
		if simPrio == nil && dres.Valid {
			// No stable assignment: co-simulate the deadline-feasible one
			// — the empirical face of the stability anomaly.
			simPrio = dres.Priorities
		}
		if simPrio == nil || e.designs[gi] == nil {
			// Without a design for the candidate itself there is nothing
			// honest to co-simulate: the total would silently omit the
			// candidate loop's cost and undercut genuinely feasible rows.
			// Empirical stays +Inf.
			return
		}
		c.Empirical = e.empirical(tasks, designs, simPrio, campaign.ItemSeed(e.opt.Seed, gi))
	})
}

// empirical co-simulates one configuration and returns the total
// empirical cost of the designed loops (+Inf when any of them diverges).
func (e *engine) empirical(tasks []rta.Task, designs []*lqg.Design, prio []int, seed int64) float64 {
	loops := make([]cosim.Loop, len(tasks))
	for i := range tasks {
		loops[i] = cosim.Loop{Task: tasks[i], Design: designs[i]}
	}
	cres, err := cosim.Run(loops, prio, cosim.Config{
		Horizon:  e.opt.Horizon,
		Seed:     seed,
		SubSteps: e.opt.SubSteps,
		Exec:     sim.ExecRandom,
	})
	if err != nil {
		return math.Inf(1)
	}
	total := 0.0
	for i, lr := range cres.Loops {
		if designs[i] == nil {
			continue
		}
		if lr.Diverged() {
			return math.Inf(1)
		}
		total += lr.Cost
	}
	return total
}

// validate runs the winner's validation co-simulation and fills the
// per-task outcome table.
func (e *engine) validate(res *Result, sel []int) error {
	ctx := e.pool.Get().(*evalCtx)
	defer e.pool.Put(ctx)
	tasks, designs := e.buildTasks(ctx, sel, -1, -1)
	rs := rta.AnalyzeAll(tasks, res.Priorities)

	loops := make([]cosim.Loop, len(tasks))
	for i := range tasks {
		loops[i] = cosim.Loop{Task: tasks[i], Design: designs[i]}
	}
	cres, err := cosim.Run(loops, res.Priorities, cosim.Config{
		Horizon:  e.opt.Horizon,
		Seed:     campaign.ItemSeed(e.opt.Seed, -1),
		SubSteps: e.opt.SubSteps,
		Exec:     sim.ExecRandom,
	})
	if err != nil {
		// The loops, priorities, and config here were all built by the
		// engine from an already-validated request: a rejection is a bug
		// in the engine, not bad caller input.
		return &internalError{fmt.Errorf("codesign: validation co-simulation: %w", err)}
	}
	e.done++
	e.progress(e.done)

	res.CosimStable = true
	res.Tasks = make([]TaskResult, len(tasks))
	for i, t := range tasks {
		tr := TaskResult{
			Name: t.Name, Period: t.Period, Priority: res.Priorities[i],
			ConA: t.ConA, ConB: t.ConB,
			WCRT: rs[i].WCRT, Latency: rs[i].Latency, Jitter: rs[i].Jitter,
			Slack:    t.Slack(rs[i].Latency, rs[i].Jitter),
			Designed: designs[i] != nil,
		}
		if d := designs[i]; d != nil {
			tr.StandaloneCost = d.Cost
			tr.DelayAwareCost = lqg.DelayedCostCached(d, rs[i].WCRT)
			tr.EmpiricalCost = cres.Loops[i].Cost
			tr.MaxState = cres.Loops[i].MaxState
			if cres.Loops[i].Diverged() {
				res.CosimStable = false
			}
		}
		res.Tasks[i] = tr
	}
	return nil
}
