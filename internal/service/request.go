package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ctrlsched/internal/assign"
	"ctrlsched/internal/experiments"
	"ctrlsched/internal/jitter"
	"ctrlsched/internal/lqg"
	"ctrlsched/internal/plant"
	"ctrlsched/internal/rta"
)

// kindAnalyze is the request kind of the single-task-set endpoint; the
// experiment kinds live in package experiments.
const kindAnalyze = "analyze"

// decodeStrict parses raw into T, rejecting unknown fields and trailing
// data so configuration typos surface as 400s instead of silently
// running a default campaign. An empty body means all defaults.
func decodeStrict[T any](raw []byte) (T, error) {
	var v T
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return v, nil
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, badRequest("bad request body: %v", err)
	}
	if dec.More() {
		return v, badRequest("bad request body: trailing data after JSON value")
	}
	return v, nil
}

// canonicalBytes is the deterministic encoding request identity is
// hashed from: compact JSON of the normalized value.
func canonicalBytes(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("service: canonicalize: %w", err)
	}
	return b, nil
}

// checkCampaign bounds one Monte-Carlo request: positive per-size item
// count, task-set sizes the assignment engine can represent, a sane
// generator spec, and a total item count within the service limit.
func (s *Service) checkCampaign(perSize int, sizes []int, passes int, gen experiments.GenSpec) error {
	if perSize < 1 {
		return badRequest("campaign needs at least 1 item per size, got %d", perSize)
	}
	if len(sizes) == 0 {
		return badRequest("campaign needs at least one task-set size")
	}
	for _, n := range sizes {
		if n < 1 || n > assign.MaxTasks {
			return badRequest("task-set size %d outside [1, %d]", n, assign.MaxTasks)
		}
	}
	// Division instead of perSize*len(sizes)*passes: the product can
	// overflow int for attacker-sized counts and slip past the limit.
	if perSize > s.cfg.MaxItems/(len(sizes)*passes) {
		return badRequest("campaign of %d×%d×%d items exceeds the service limit of %d",
			perSize, len(sizes), passes, s.cfg.MaxItems)
	}
	if !(gen.UMin > 0 && gen.UMin <= gen.UMax && gen.UMax <= 1) {
		return badRequest("gen: utilization range [%v, %v] outside 0 < u_min ≤ u_max ≤ 1", gen.UMin, gen.UMax)
	}
	if !(gen.BCETMin > 0 && gen.BCETMin <= gen.BCETMax && gen.BCETMax <= 1) {
		return badRequest("gen: BCET ratio range [%v, %v] outside 0 < bcet_min ≤ bcet_max ≤ 1", gen.BCETMin, gen.BCETMax)
	}
	if gen.GridPoints < 1 || gen.GridPoints > 500 {
		return badRequest("gen: grid_points %d outside [1, 500]", gen.GridPoints)
	}
	return nil
}

// plantRegistry indexes the benchmark plant library by name for the
// /v1/analyze plant route.
var plantRegistry = func() map[string]*plant.Plant {
	m := make(map[string]*plant.Plant)
	for _, p := range plant.Library() {
		m[p.Name] = p
	}
	return m
}()

func plantNames() string {
	names := make([]string, 0, len(plantRegistry))
	for n := range plantRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// TaskSpec is one control task of an /v1/analyze request. The stability
// constraint L + con_a·J ≤ con_b can be given explicitly, derived from a
// named plant's jitter margin at the task's period (set "plant"), or
// omitted entirely — then it defaults to the implicit deadline
// L + J ≤ period, making the query a pure schedulability question.
type TaskSpec struct {
	Name   string  `json:"name"`
	Plant  string  `json:"plant,omitempty"`
	BCET   float64 `json:"bcet"`
	WCET   float64 `json:"wcet"`
	Period float64 `json:"period"`
	ConA   float64 `json:"con_a,omitempty"`
	ConB   float64 `json:"con_b,omitempty"`
}

// AnalyzeRequest is a single task-set or single plant analysis query.
// Exactly one of Tasks or Plant must be set.
//
//   - Tasks: priority assignment by Method plus exact response-time and
//     stability analysis of the resulting order.
//   - Plant (+Period): LQG cost and jitter-margin stability curve of the
//     named benchmark plant sampled at Period.
type AnalyzeRequest struct {
	Tasks  []TaskSpec `json:"tasks,omitempty"`
	Method string     `json:"method,omitempty"`
	Plant  string     `json:"plant,omitempty"`
	Period float64    `json:"period,omitempty"`
}

// methodFunc maps an assignment method name to its implementation; nil
// for unknown names. The backtracking search is memoized and budgeted so
// a single pathological request cannot stall a pool slot indefinitely.
func methodFunc(m string) func([]rta.Task) assign.Result {
	switch m {
	case "backtracking":
		return func(ts []rta.Task) assign.Result {
			return assign.BacktrackingOpts(ts, assign.Options{Memoize: true, MaxEvaluations: 2_000_000})
		}
	case "unsafe":
		return assign.UnsafeQuadratic
	case "rm":
		return assign.RateMonotonic
	case "slackmono":
		return assign.SlackMonotonic
	case "audsley":
		return assign.AudsleyGreedy
	}
	return nil
}

// normalize validates the request and fills defaults, returning the
// canonical form requests are cached under.
func (r AnalyzeRequest) normalize() (AnalyzeRequest, error) {
	hasTasks, hasPlant := len(r.Tasks) > 0, r.Plant != ""
	if hasTasks == hasPlant {
		return r, badRequest("provide exactly one of tasks or plant")
	}
	if hasPlant {
		if _, ok := plantRegistry[r.Plant]; !ok {
			return r, badRequest("unknown plant %q (have: %s)", r.Plant, plantNames())
		}
		if !(r.Period > 0) {
			return r, badRequest("plant analysis needs period > 0, got %v", r.Period)
		}
		if r.Method != "" {
			return r, badRequest("method applies only to task-set analysis")
		}
		return r, nil
	}
	if r.Period != 0 {
		return r, badRequest("period applies only to plant analysis")
	}
	if len(r.Tasks) > assign.MaxTasks {
		return r, badRequest("%d tasks exceed the %d-task limit", len(r.Tasks), assign.MaxTasks)
	}
	if r.Method == "" {
		r.Method = "backtracking"
	}
	if methodFunc(r.Method) == nil {
		return r, badRequest("unknown method %q (have: backtracking, unsafe, rm, slackmono, audsley)", r.Method)
	}
	tasks, err := normalizeTaskSpecs(r.Tasks)
	if err != nil {
		return r, err
	}
	r.Tasks = tasks
	return r, nil
}

// normalizeTaskSpecs validates and canonicalizes one task-spec list; the
// /v1/analyze request and the /v1/codesign base workload share it. Names
// default to task1…; a plain task without a constraint defaults to the
// implicit deadline L + J ≤ period; a plant-backed task must leave the
// constraint to the jitter-margin analysis.
func normalizeTaskSpecs(specs []TaskSpec) ([]TaskSpec, error) {
	tasks := append([]TaskSpec(nil), specs...)
	for i := range tasks {
		t := &tasks[i]
		if t.Name == "" {
			t.Name = fmt.Sprintf("task%d", i+1)
		}
		if !(t.BCET > 0 && t.BCET <= t.WCET && t.WCET <= t.Period) {
			return nil, badRequest("task %s: need 0 < bcet ≤ wcet ≤ period, got [%v, %v] at period %v",
				t.Name, t.BCET, t.WCET, t.Period)
		}
		if t.Plant != "" {
			if _, ok := plantRegistry[t.Plant]; !ok {
				return nil, badRequest("task %s: unknown plant %q (have: %s)", t.Name, t.Plant, plantNames())
			}
			if t.ConA != 0 || t.ConB != 0 {
				return nil, badRequest("task %s: give either plant or an explicit constraint, not both", t.Name)
			}
			continue
		}
		if t.ConA == 0 && t.ConB == 0 {
			// No constraint given: default to the implicit deadline
			// L + J ≤ period (a pure schedulability query).
			t.ConA, t.ConB = 1, t.Period
		}
		if t.ConA < 1 || t.ConB < 0 {
			return nil, badRequest("task %s: constraint a=%v b=%v outside a ≥ 1, b ≥ 0", t.Name, t.ConA, t.ConB)
		}
	}
	return tasks, nil
}

// TaskAnalysis is the exact response-time and stability verdict of one
// task under the chosen priority assignment. Every field fed by the
// analysis kernels is an experiments.Float: an unschedulable task's
// response times and slack are ±Inf, and plain float64 fields would make
// json.Marshal fail mid-response instead of emitting the shared
// "inf"/"-inf"/"nan" spellings.
type TaskAnalysis struct {
	Name        string            `json:"name"`
	Priority    int               `json:"priority"`
	ConA        float64           `json:"con_a"`
	ConB        float64           `json:"con_b"`
	WCRT        experiments.Float `json:"wcrt"`
	BCRT        experiments.Float `json:"bcrt"`
	Latency     experiments.Float `json:"latency"`
	Jitter      experiments.Float `json:"jitter"`
	DeadlineMet bool              `json:"deadline_met"`
	Stable      bool              `json:"stable"`
	Slack       experiments.Float `json:"slack"` // con_b − (L + con_a·J)
}

// PlantAnalysis answers a plant query: the stationary LQG cost density
// at the requested period and the jitter-margin stability curve with
// its fitted linear bound. The margin fields are experiments.Float for
// the same reason as TaskAnalysis: a delay-insensitive loop's jitter
// margin is a +Inf sentinel, which must encode as "inf", not abort the
// response.
type PlantAnalysis struct {
	Name                string              `json:"name"`
	Period              float64             `json:"period"`
	Cost                experiments.Float   `json:"cost"`
	ConA                float64             `json:"con_a,omitempty"`
	ConB                float64             `json:"con_b,omitempty"`
	JitterMarginAtZeroL experiments.Float   `json:"jitter_margin_zero_latency,omitempty"`
	Latency             []experiments.Float `json:"latency,omitempty"`
	JMax                []experiments.Float `json:"jmax,omitempty"`
	Error               string              `json:"error,omitempty"`
}

// AnalyzeResult is the typed response of /v1/analyze. It satisfies
// experiments.Result, so it shares the canonical JSON encoding and the
// CLI render path with the campaign experiments.
type AnalyzeResult struct {
	Meta        experiments.Meta `json:"meta"`
	Request     AnalyzeRequest   `json:"request"`
	Schedulable bool             `json:"schedulable"`
	Aborted     bool             `json:"aborted,omitempty"`
	Priorities  []int            `json:"priorities,omitempty"`
	Utilization float64          `json:"utilization,omitempty"`
	Evaluations int              `json:"evaluations,omitempty"`
	Backtracks  int              `json:"backtracks,omitempty"`
	Tasks       []TaskAnalysis   `json:"tasks,omitempty"`
	Plant       *PlantAnalysis   `json:"plant,omitempty"`
}

// Kind identifies the request kind that produced this result.
func (r AnalyzeResult) Kind() string { return kindAnalyze }

// Render prints a human-readable verdict.
func (r AnalyzeResult) Render(w io.Writer) {
	if r.Plant != nil {
		fmt.Fprintf(w, "Plant %s @ h=%v s\n", r.Plant.Name, r.Plant.Period)
		fmt.Fprintf(w, "  LQG cost density: %v\n", float64(r.Plant.Cost))
		if r.Plant.Error != "" {
			fmt.Fprintf(w, "  jitter margin: unavailable (%s)\n", r.Plant.Error)
			return
		}
		fmt.Fprintf(w, "  stability constraint: L + %.4g·J ≤ %.4g\n", r.Plant.ConA, r.Plant.ConB)
		fmt.Fprintf(w, "  jitter margin at zero latency: %.4g s\n", r.Plant.JitterMarginAtZeroL)
		return
	}
	verdict := "NOT SCHEDULABLE"
	if r.Schedulable {
		verdict = "SCHEDULABLE"
	}
	if r.Aborted {
		verdict += " (search budget exhausted)"
	}
	fmt.Fprintf(w, "Task-set analysis — method %s: %s (U=%.3f, evaluations %d, backtracks %d)\n",
		r.Request.Method, verdict, r.Utilization, r.Evaluations, r.Backtracks)
	if len(r.Tasks) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-12s %5s %10s %10s %10s %10s %9s %7s %10s\n",
		"task", "prio", "wcrt", "bcrt", "latency", "jitter", "deadline", "stable", "slack")
	for _, t := range r.Tasks {
		fmt.Fprintf(w, "  %-12s %5d %10.5g %10.5g %10.5g %10.5g %9v %7v %10.5g\n",
			t.Name, t.Priority, float64(t.WCRT), t.BCRT, t.Latency, float64(t.Jitter),
			t.DeadlineMet, t.Stable, float64(t.Slack))
	}
}

// WriteCSV emits the per-task rows (or the plant stability curve).
// Non-finite cells go through the shared formatter, so they spell
// "inf"/"-inf"/"nan" exactly as the JSON encoding does.
func (r AnalyzeResult) WriteCSV(w io.Writer) {
	if r.Plant != nil {
		experiments.WriteCSVRow(w, "plant", "period_s", "cost", "con_a", "con_b", "latency_s", "jmax_s")
		for i := range r.Plant.Latency {
			experiments.WriteCSVRow(w, r.Plant.Name, r.Plant.Period,
				r.Plant.Cost, r.Plant.ConA, r.Plant.ConB, r.Plant.Latency[i], r.Plant.JMax[i])
		}
		return
	}
	experiments.WriteCSVRow(w, "task", "priority", "wcrt", "bcrt", "latency", "jitter", "deadline_met", "stable", "slack")
	for _, t := range r.Tasks {
		experiments.WriteCSVRow(w, t.Name, t.Priority, t.WCRT,
			t.BCRT, t.Latency, t.Jitter, t.DeadlineMet, t.Stable, t.Slack)
	}
}

// runAnalyze executes a normalized analyze request.
func (s *Service) runAnalyze(req AnalyzeRequest) (experiments.Result, error) {
	if req.Plant != "" {
		return s.runPlantAnalyze(req)
	}
	tasks := make([]rta.Task, len(req.Tasks))
	for i, ts := range req.Tasks {
		t := rta.Task{Name: ts.Name, BCET: ts.BCET, WCET: ts.WCET, Period: ts.Period, ConA: ts.ConA, ConB: ts.ConB}
		if ts.Plant != "" {
			m, err := jitter.ForPlantCached(plantRegistry[ts.Plant], ts.Period)
			if err != nil {
				return nil, badRequest("task %s: jitter margin of %s at h=%v: %v", ts.Name, ts.Plant, ts.Period, err)
			}
			t.ConA, t.ConB = m.A, m.B
		}
		if err := t.Validate(); err != nil {
			return nil, badRequest("%v", err)
		}
		tasks[i] = t
	}
	res := methodFunc(req.Method)(tasks)
	out := AnalyzeResult{
		Meta:        experiments.Meta{Kind: kindAnalyze, Schema: experiments.SchemaVersion, Items: len(tasks)},
		Request:     req,
		Schedulable: res.Valid,
		Aborted:     res.Aborted,
		Priorities:  res.Priorities,
		Utilization: rta.TotalUtilization(tasks),
		Evaluations: res.Stats.Evaluations,
		Backtracks:  res.Stats.Backtracks,
	}
	if res.Priorities != nil {
		rs := rta.AnalyzeAll(tasks, res.Priorities)
		out.Tasks = make([]TaskAnalysis, len(tasks))
		for i, t := range tasks {
			out.Tasks[i] = TaskAnalysis{
				Name:        t.Name,
				Priority:    res.Priorities[i],
				ConA:        t.ConA,
				ConB:        t.ConB,
				WCRT:        experiments.Float(rs[i].WCRT),
				BCRT:        experiments.Float(rs[i].BCRT),
				Latency:     experiments.Float(rs[i].Latency),
				Jitter:      experiments.Float(rs[i].Jitter),
				DeadlineMet: rs[i].DeadlineMet,
				Stable:      rs[i].Stable,
				Slack:       experiments.Float(t.Slack(rs[i].Latency, rs[i].Jitter)),
			}
		}
	}
	return out, nil
}

// floatSlice converts analysis-kernel floats to the inf/nan-safe JSON
// representation.
func floatSlice(v []float64) []experiments.Float {
	out := make([]experiments.Float, len(v))
	for i, x := range v {
		out[i] = experiments.Float(x)
	}
	return out
}

// runPlantAnalyze answers the plant route: LQG cost plus jitter margin.
func (s *Service) runPlantAnalyze(req AnalyzeRequest) (experiments.Result, error) {
	p := plantRegistry[req.Plant]
	pa := &PlantAnalysis{
		Name:   p.Name,
		Period: req.Period,
		// Cost is +Inf at pathological periods — a valid answer, not an
		// error (it is exactly what Fig. 2's spikes plot). The cached
		// synthesis is shared with the margin analysis below, so the
		// plant route performs one synthesis, not two.
		Cost: experiments.Float(lqg.CostCached(p, req.Period)),
	}
	if m, err := jitter.ForPlantCached(p, req.Period); err != nil {
		pa.Error = err.Error()
	} else {
		pa.ConA, pa.ConB = m.A, m.B
		pa.Latency, pa.JMax = floatSlice(m.Latency), floatSlice(m.JMax)
		if len(m.JMax) > 0 {
			pa.JitterMarginAtZeroL = experiments.Float(m.JMax[0])
		}
	}
	return AnalyzeResult{
		Meta:    experiments.Meta{Kind: kindAnalyze, Schema: experiments.SchemaVersion, Items: 1},
		Request: req,
		Plant:   pa,
	}, nil
}
