package service

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"ctrlsched/internal/assign"
	"ctrlsched/internal/codesign"
	"ctrlsched/internal/experiments"
	"ctrlsched/internal/rta"
)

// kindCodesign is the request kind of the co-design synthesis endpoint.
const kindCodesign = experiments.KindCodesign

// Codesign request limits: loops and candidate grids are multiplied
// through alternating sweeps and per-candidate co-simulations, so both
// dimensions are bounded independently of MaxItems.
const (
	maxCodesignLoops      = 8
	maxCodesignGrid       = 64
	maxCodesignCandidates = 256
	maxCodesignHorizon    = 30.0
	maxCodesignIters      = 16
	maxCodesignRefine     = 4
)

// CodesignLoopSpec is one candidate control loop of a /v1/codesign
// request: the plant (by library name), the execution-time bounds of its
// control task, and the candidate sampling-period grid to search.
type CodesignLoopSpec struct {
	Name    string    `json:"name,omitempty"`
	Plant   string    `json:"plant"`
	BCET    float64   `json:"bcet"`
	WCET    float64   `json:"wcet"`
	Periods []float64 `json:"periods"`
}

// CodesignRequest is the body of POST /v1/codesign: synthesize sampling
// periods and a priority assignment for the candidate loops on top of a
// fixed base workload, minimizing total delay-aware LQG cost subject to
// schedulability and jitter-margin stability. BaseTasks follow the
// /v1/analyze task rules (explicit constraint, named plant, or implicit
// deadline).
type CodesignRequest struct {
	BaseTasks []TaskSpec         `json:"base_tasks,omitempty"`
	Loops     []CodesignLoopSpec `json:"loops"`
	Method    string             `json:"method,omitempty"`
	MaxIters  int                `json:"max_iters,omitempty"`
	Refine    int                `json:"refine,omitempty"`
	Horizon   float64            `json:"horizon,omitempty"`
	Seed      int64              `json:"seed,omitempty"`
}

// normalize validates the request and fills defaults, returning the
// canonical form requests are cached under (grids sorted and deduped).
func (r CodesignRequest) normalize() (CodesignRequest, error) {
	if len(r.Loops) == 0 {
		return r, badRequest("codesign needs at least one candidate loop")
	}
	if len(r.Loops) > maxCodesignLoops {
		return r, badRequest("%d loops exceed the %d-loop limit", len(r.Loops), maxCodesignLoops)
	}
	if len(r.BaseTasks)+len(r.Loops) > assign.MaxTasks {
		return r, badRequest("%d tasks exceed the %d-task limit", len(r.BaseTasks)+len(r.Loops), assign.MaxTasks)
	}
	base, err := normalizeTaskSpecs(r.BaseTasks)
	if err != nil {
		return r, err
	}
	r.BaseTasks = base

	loops := append([]CodesignLoopSpec(nil), r.Loops...)
	r.Loops = loops
	totalCands := 0
	for i := range loops {
		lp := &loops[i]
		if lp.Name == "" {
			lp.Name = fmt.Sprintf("loop%d", i+1)
		}
		if _, ok := plantRegistry[lp.Plant]; !ok {
			return r, badRequest("loop %s: unknown plant %q (have: %s)", lp.Name, lp.Plant, plantNames())
		}
		if !(lp.BCET > 0 && lp.BCET <= lp.WCET) {
			return r, badRequest("loop %s: need 0 < bcet ≤ wcet, got [%v, %v]", lp.Name, lp.BCET, lp.WCET)
		}
		if len(lp.Periods) == 0 {
			return r, badRequest("loop %s: empty candidate period grid", lp.Name)
		}
		if len(lp.Periods) > maxCodesignGrid {
			return r, badRequest("loop %s: %d candidate periods exceed the %d-candidate limit", lp.Name, len(lp.Periods), maxCodesignGrid)
		}
		hs := append([]float64(nil), lp.Periods...)
		sort.Float64s(hs)
		dedup := hs[:0]
		for _, h := range hs {
			if !(h > 0 && h <= 10) {
				return r, badRequest("loop %s: candidate period %v outside (0, 10] seconds", lp.Name, h)
			}
			if len(dedup) == 0 || h != dedup[len(dedup)-1] {
				dedup = append(dedup, h)
			}
		}
		lp.Periods = dedup
		totalCands += len(dedup)
	}
	if totalCands > maxCodesignCandidates {
		return r, badRequest("%d total candidates exceed the %d-candidate limit", totalCands, maxCodesignCandidates)
	}
	if r.Method == "" {
		r.Method = "backtracking"
	}
	if methodFunc(r.Method) == nil {
		return r, badRequest("unknown method %q (have: backtracking, unsafe, rm, slackmono, audsley)", r.Method)
	}
	if r.MaxIters == 0 {
		r.MaxIters = 4
	}
	if r.MaxIters < 1 || r.MaxIters > maxCodesignIters {
		return r, badRequest("max_iters %d outside [1, %d]", r.MaxIters, maxCodesignIters)
	}
	if r.Refine < 0 || r.Refine > maxCodesignRefine {
		return r, badRequest("refine %d outside [0, %d]", r.Refine, maxCodesignRefine)
	}
	if r.Horizon == 0 {
		r.Horizon = 2
	}
	if !(r.Horizon > 0 && r.Horizon <= maxCodesignHorizon) {
		return r, badRequest("horizon %v outside (0, %v] seconds", r.Horizon, maxCodesignHorizon)
	}
	return r, nil
}

// CodesignCandidate reports one evaluated (loop, period) pair, with the
// diagnostics of the configuration where that candidate replaces its
// loop's selected period.
type CodesignCandidate struct {
	Loop        int               `json:"loop"`
	Period      float64           `json:"period"`
	Cost        experiments.Float `json:"cost"`
	ConA        float64           `json:"con_a,omitempty"`
	ConB        float64           `json:"con_b,omitempty"`
	Note        string            `json:"note,omitempty"`
	Refined     bool              `json:"refined,omitempty"`
	Schedulable bool              `json:"schedulable"`
	Stable      bool              `json:"stable"`
	Objective   experiments.Float `json:"objective"`
	Empirical   experiments.Float `json:"empirical"`
}

// CodesignTask is the winning configuration's outcome for one task.
type CodesignTask struct {
	Name           string            `json:"name"`
	Period         float64           `json:"period"`
	Priority       int               `json:"priority"`
	ConA           float64           `json:"con_a"`
	ConB           float64           `json:"con_b"`
	WCRT           experiments.Float `json:"wcrt"`
	Latency        experiments.Float `json:"latency"`
	Jitter         experiments.Float `json:"jitter"`
	Slack          experiments.Float `json:"slack"`
	StandaloneCost experiments.Float `json:"standalone_cost,omitempty"`
	DelayAwareCost experiments.Float `json:"delay_aware_cost,omitempty"`
	EmpiricalCost  experiments.Float `json:"empirical_cost,omitempty"`
	MaxState       experiments.Float `json:"max_state,omitempty"`
	Designed       bool              `json:"designed"`
}

// CodesignSweep is one alternating-minimization sweep of the convergence
// trace: the incumbent objective when the sweep finished, the cumulative
// number of configuration evaluations up to that point, and the candidate
// grid size (which grows when refinement inserts midpoints).
type CodesignSweep struct {
	Sweep       int               `json:"sweep"`
	Objective   experiments.Float `json:"objective"`
	Evaluations int               `json:"evaluations"`
	GridSize    int               `json:"grid_size"`
}

// CodesignResult is the typed response of /v1/codesign. It satisfies
// experiments.Result, sharing the canonical JSON encoding and the CLI
// render paths.
type CodesignResult struct {
	Meta        experiments.Meta  `json:"meta"`
	Request     CodesignRequest   `json:"request"`
	Feasible    bool              `json:"feasible"`
	Periods     []float64         `json:"periods,omitempty"`
	Priorities  []int             `json:"priorities,omitempty"`
	TotalCost   experiments.Float `json:"total_cost"`
	Iterations  int               `json:"iterations"`
	Evaluations int               `json:"evaluations"`
	Converged   bool              `json:"converged"`
	CosimStable bool              `json:"cosim_stable"`
	// ConvergenceTrace records the per-sweep incumbents of the
	// alternating search, oldest first.
	ConvergenceTrace []CodesignSweep     `json:"convergence_trace,omitempty"`
	Tasks            []CodesignTask      `json:"tasks,omitempty"`
	Candidates       []CodesignCandidate `json:"candidates"`
}

// Kind identifies the request kind that produced this result.
func (r CodesignResult) Kind() string { return kindCodesign }

// shortestSchedulable returns the shortest deadline-schedulable
// candidate period of loop l (+Inf when none).
func (r CodesignResult) shortestSchedulable(l int) float64 {
	best := math.Inf(1)
	for _, c := range r.Candidates {
		if c.Loop == l && c.Schedulable && c.Period < best {
			best = c.Period
		}
	}
	return best
}

// Render prints the synthesis verdict, the winning configuration, and
// the candidate table.
func (r CodesignResult) Render(w io.Writer) {
	if !r.Feasible {
		fmt.Fprintf(w, "Co-design: INFEASIBLE — no stable period/priority configuration (after %d evaluations)\n",
			r.Evaluations)
	} else {
		fmt.Fprintf(w, "Co-design: total delay-aware LQG cost %.4g (iterations %d, evaluations %d, converged %v, co-sim stable %v)\n",
			float64(r.TotalCost), r.Iterations, r.Evaluations, r.Converged, r.CosimStable)
		fmt.Fprintf(w, "  %-12s %9s %5s %10s %10s %10s %10s %12s %12s\n",
			"task", "period_ms", "prio", "wcrt_ms", "jitter_ms", "slack_ms", "cost", "delay-aware", "empirical")
		for _, t := range r.Tasks {
			cost, dcost, ecost := "-", "-", "-"
			if t.Designed {
				cost = fmt.Sprintf("%.4g", float64(t.StandaloneCost))
				dcost = fmt.Sprintf("%.4g", float64(t.DelayAwareCost))
				ecost = fmt.Sprintf("%.4g", float64(t.EmpiricalCost))
			}
			fmt.Fprintf(w, "  %-12s %9.3f %5d %10.4g %10.4g %10.4g %10s %12s %12s\n",
				t.Name, t.Period*1000, t.Priority, float64(t.WCRT)*1000, float64(t.Jitter)*1000,
				float64(t.Slack)*1000, cost, dcost, ecost)
		}
	}
	for l := 0; ; l++ {
		var rows []CodesignCandidate
		for _, c := range r.Candidates {
			if c.Loop == l {
				rows = append(rows, c)
			}
		}
		if len(rows) == 0 {
			break
		}
		// JSON keeps evaluation order (stable candidate identity); the
		// human table reads better sorted by period.
		sort.Slice(rows, func(a, b int) bool { return rows[a].Period < rows[b].Period })
		fmt.Fprintf(w, "  candidates, loop %d:\n", l)
		fmt.Fprintf(w, "    %9s %10s %12s %12s %6s %6s %s\n",
			"period_ms", "cost", "objective", "empirical", "sched", "stable", "note")
		for _, c := range rows {
			mark := ""
			if r.Feasible && l < len(r.Periods) && c.Period == r.Periods[l] {
				mark = "  <- selected"
			}
			fmt.Fprintf(w, "    %9.3f %10.4g %12.4g %12.4g %6v %6v %s%s\n",
				c.Period*1000, float64(c.Cost), float64(c.Objective), float64(c.Empirical),
				c.Schedulable, c.Stable, c.Note, mark)
		}
		if r.Feasible && l < len(r.Periods) {
			if short := r.shortestSchedulable(l); short < r.Periods[l] {
				fmt.Fprintf(w, "    note: selected %.3f ms is NOT the shortest schedulable candidate (%.3f ms) —\n",
					r.Periods[l]*1000, short*1000)
				fmt.Fprintf(w, "    stability and delay-aware cost, not schedulability, pick the period (the paper's punchline).\n")
			}
		}
	}
}

// WriteCSV emits the candidate table (the machine-readable face of the
// sweep), then the winning task rows.
func (r CodesignResult) WriteCSV(w io.Writer) {
	experiments.WriteCSVRow(w, "loop", "period_s", "cost", "con_a", "con_b",
		"schedulable", "stable", "objective", "empirical", "refined", "selected", "note")
	for _, c := range r.Candidates {
		selected := r.Feasible && c.Loop < len(r.Periods) && c.Period == r.Periods[c.Loop]
		experiments.WriteCSVRow(w, c.Loop, c.Period, c.Cost, c.ConA, c.ConB,
			c.Schedulable, c.Stable, c.Objective, c.Empirical, c.Refined, selected, c.Note)
	}
	if !r.Feasible {
		return
	}
	experiments.WriteCSVRow(w, "task", "period_s", "priority", "wcrt", "latency", "jitter",
		"slack", "standalone_cost", "delay_aware_cost", "empirical_cost")
	for _, t := range r.Tasks {
		experiments.WriteCSVRow(w, t.Name, t.Period, t.Priority, t.WCRT, t.Latency, t.Jitter,
			t.Slack, t.StandaloneCost, t.DelayAwareCost, t.EmpiricalCost)
	}
}

// codesignAssign adapts an /v1/analyze method name to the engine's
// AssignFunc. Backtracking routes through the pooled searcher so the
// inner iterations reuse its buffers; the other methods ignore it.
func codesignAssign(method string) codesign.AssignFunc {
	if method == "backtracking" {
		return codesign.DefaultAssign
	}
	fn := methodFunc(method)
	return func(_ *assign.Searcher, tasks []rta.Task) assign.Result {
		return fn(tasks)
	}
}

// Codesign answers one co-design synthesis request: canonicalized
// request, shared cache key and flight coalescing, campaign-pool
// admission, and byte-identical responses across repeats, worker counts,
// and cache hits. progress, when non-nil, receives one event per
// candidate evaluation.
func (s *Service) Codesign(ctx context.Context, raw []byte, progress experiments.ProgressFunc) ([]byte, bool, error) {
	return s.call(ctx, codesignKind, raw, sink{progress: progress})
}

// runCodesign translates a normalized request into engine inputs, runs
// the synthesis on the service's pool settings, and converts the result.
func (s *Service) runCodesign(req CodesignRequest, progress experiments.ProgressFunc, abort <-chan struct{}) (experiments.Result, error) {
	base := make([]codesign.BaseTask, len(req.BaseTasks))
	for i, ts := range req.BaseTasks {
		bt := codesign.BaseTask{Task: rta.Task{
			Name: ts.Name, BCET: ts.BCET, WCET: ts.WCET, Period: ts.Period,
			ConA: ts.ConA, ConB: ts.ConB,
		}}
		if ts.Plant != "" {
			bt.Plant = plantRegistry[ts.Plant]
		}
		base[i] = bt
	}
	loops := make([]codesign.LoopSpec, len(req.Loops))
	for i, lp := range req.Loops {
		loops[i] = codesign.LoopSpec{
			Name:    lp.Name,
			Plant:   plantRegistry[lp.Plant],
			BCET:    lp.BCET,
			WCET:    lp.WCET,
			Periods: lp.Periods,
		}
	}
	res, err := codesign.Run(base, loops, codesign.Options{
		Assign:   codesignAssign(req.Method),
		MaxIters: req.MaxIters,
		Refine:   req.Refine,
		Horizon:  req.Horizon,
		Seed:     req.Seed,
		Workers:  s.cfg.Workers,
		Progress: progress,
		Abort:    abort,
	})
	if err != nil {
		return nil, err
	}

	out := CodesignResult{
		Meta: experiments.Meta{
			Kind: kindCodesign, Schema: experiments.SchemaVersion,
			Seed: req.Seed, Items: res.Evaluations,
		},
		Request:     req,
		Feasible:    res.Feasible,
		Periods:     res.Periods,
		Priorities:  res.Priorities,
		TotalCost:   experiments.Float(res.TotalCost),
		Iterations:  res.Iterations,
		Evaluations: res.Evaluations,
		Converged:   res.Converged,
		CosimStable: res.CosimStable,
	}
	if !res.Feasible {
		out.TotalCost = experiments.Float(math.Inf(1))
	}
	for _, sw := range res.Trace {
		out.ConvergenceTrace = append(out.ConvergenceTrace, CodesignSweep{
			Sweep:       sw.Sweep,
			Objective:   experiments.Float(sw.Objective),
			Evaluations: sw.Evaluations,
			GridSize:    sw.GridSize,
		})
	}
	out.Candidates = make([]CodesignCandidate, len(res.Candidates))
	for i, c := range res.Candidates {
		out.Candidates[i] = CodesignCandidate{
			Loop:        c.Loop,
			Period:      c.Period,
			Cost:        experiments.Float(c.Cost),
			ConA:        c.ConA,
			ConB:        c.ConB,
			Note:        c.Note,
			Refined:     c.Refined,
			Schedulable: c.Schedulable,
			Stable:      c.Stable,
			Objective:   experiments.Float(c.Objective),
			Empirical:   experiments.Float(c.Empirical),
		}
	}
	out.Tasks = make([]CodesignTask, len(res.Tasks))
	for i, t := range res.Tasks {
		out.Tasks[i] = CodesignTask{
			Name:           t.Name,
			Period:         t.Period,
			Priority:       t.Priority,
			ConA:           t.ConA,
			ConB:           t.ConB,
			WCRT:           experiments.Float(t.WCRT),
			Latency:        experiments.Float(t.Latency),
			Jitter:         experiments.Float(t.Jitter),
			Slack:          experiments.Float(t.Slack),
			StandaloneCost: experiments.Float(t.StandaloneCost),
			DelayAwareCost: experiments.Float(t.DelayAwareCost),
			EmpiricalCost:  experiments.Float(t.EmpiricalCost),
			MaxState:       experiments.Float(t.MaxState),
			Designed:       t.Designed,
		}
	}
	if len(out.Tasks) == 0 {
		out.Tasks = nil
	}
	return out, nil
}
