// Package rta implements exact fixed-priority preemptive response-time
// analysis for independent periodic tasks, as used in Section III of the
// reproduced paper:
//
//	worst case (Joseph & Pandya):   Rʷ = cʷ + Σ_{j∈hp} ⌈Rʷ/h_j⌉ · cʷ_j
//	best case (Redell & Sanfridson): Rᵇ = cᵇ + Σ_{j∈hp} ⌈Rᵇ/h_j − 1⌉ · cᵇ_j
//
// and derives the control-relevant metrics of paper Eq. (2): the latency
// L = Rᵇ (constant part of the delay) and the response-time jitter
// J = Rʷ − Rᵇ (variation of the delay).
//
// Times are float64 seconds. The fixed points are reached exactly (the
// ceiling functions make iterates piecewise constant), with an iteration
// budget and a divergence bound guarding the over-utilized case.
//
// Each recurrence has one implementation, which takes the higher-priority
// set as a bitmask over the caller's task slice (AnalyzeMask): the
// priority-assignment searches and AnalyzeAll select a task's interferers
// without copying them, and the slice-taking entry points (Analyze, WCRT,
// BCRT) select every task of their slice. Utilization and interference
// are summed in ascending index order, which is the order of the slice a
// caller would otherwise have built, so every result is bit-identical to
// a copy-based analysis.
package rta

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrUnschedulable is returned when the worst-case response time iteration
// diverges (processor over-utilized by the higher-priority workload).
var ErrUnschedulable = errors.New("rta: response time diverges; task set over-utilized")

// Task is one control task: execution-time bounds, sampling period, and
// the linear stability constraint L + ConA·J ≤ ConB obtained from the
// jitter-margin analysis of its plant (paper Eq. 5).
type Task struct {
	Name   string
	BCET   float64 // best-case execution time cᵇ
	WCET   float64 // worst-case execution time cʷ
	Period float64 // sampling period h

	// Stability constraint coefficients (paper Eq. 5): a ≥ 1, b ≥ 0.
	ConA, ConB float64
}

// Validate checks the task invariants: 0 < BCET ≤ WCET ≤ Period and a
// well-formed constraint.
func (t Task) Validate() error {
	if !(t.BCET > 0 && t.BCET <= t.WCET) {
		return fmt.Errorf("rta: task %s: need 0 < BCET ≤ WCET, got [%v, %v]", t.Name, t.BCET, t.WCET)
	}
	if t.WCET > t.Period {
		return fmt.Errorf("rta: task %s: WCET %v exceeds period %v", t.Name, t.WCET, t.Period)
	}
	if t.ConA < 1 || t.ConB < 0 {
		return fmt.Errorf("rta: task %s: constraint a=%v b=%v outside a ≥ 1, b ≥ 0", t.Name, t.ConA, t.ConB)
	}
	return nil
}

// StabilitySatisfied reports whether latency l and jitter j satisfy this
// task's constraint l + a·j ≤ b.
func (t Task) StabilitySatisfied(l, j float64) bool {
	return l+t.ConA*j <= t.ConB+1e-12
}

// Slack returns b − (l + a·j).
func (t Task) Slack(l, j float64) float64 {
	return t.ConB - (l + t.ConA*j)
}

// Utilization returns WCET/Period.
func (t Task) Utilization() float64 { return t.WCET / t.Period }

// TotalUtilization sums WCET/Period over the given tasks.
func TotalUtilization(tasks []Task) float64 {
	var u float64
	for _, t := range tasks {
		u += t.Utilization()
	}
	return u
}

// maxIterations bounds the fixed-point iterations; divergenceFactor bounds
// the response time in units of the longest higher-priority period before
// declaring divergence.
const (
	maxIterations    = 100000
	divergenceFactor = 1000
)

// MaxMaskTasks is the width of a higher-priority mask: the kernels below
// take the higher-priority set as a uint64 whose bit j selects tasks[j],
// so a task slice analyzed through them holds at most 64 tasks. Every
// input path caps task sets at assign.MaxTasks (31) first, so a longer
// slice can only come from a bug, and the slice-taking entry points panic
// on one.
const MaxMaskTasks = 64

// allMask selects every task of a slice of length n.
func allMask(n int) uint64 {
	if n > MaxMaskTasks {
		panic("rta: more than 64 tasks for a higher-priority mask")
	}
	return 1<<uint(n) - 1 // a shift by 64 yields 0, so n = 64 sets all bits
}

// wcrt is the Joseph–Pandya worst-case recurrence of a task with
// execution demand cw under interference from the tasks[j] whose bit j is
// set in hp, started at cw. Utilization and interference are summed in
// ascending index order. Once the iterate exceeds bound the computation
// stops with ErrUnschedulable (+Inf): Analyze passes the deadline, which
// turns the near-saturation fixed point, whose exact value can take tens
// of thousands of ceiling steps to reach, into an early exit.
func wcrt(cw float64, tasks []Task, hp uint64, bound float64) (float64, error) {
	if hp == 0 {
		if cw > bound {
			return math.Inf(1), ErrUnschedulable
		}
		return cw, nil
	}
	// Analytic divergence check: with Σ WCET/Period ≥ 1 the recurrence
	// R ← cw + Σ⌈R/h⌉·C satisfies next ≥ cw + R > R forever.
	var util float64
	for m := hp; m != 0; m &= m - 1 {
		t := &tasks[bits.TrailingZeros64(m)]
		util += t.WCET / t.Period
	}
	if util >= 1 {
		return math.Inf(1), ErrUnschedulable
	}

	r := cw
	for iter := 0; iter < maxIterations; iter++ {
		next := cw
		for m := hp; m != 0; m &= m - 1 {
			t := &tasks[bits.TrailingZeros64(m)]
			next += math.Ceil(r/t.Period) * t.WCET
		}
		if next == r {
			return r, nil
		}
		if next > bound || math.IsInf(next, 1) {
			return math.Inf(1), ErrUnschedulable
		}
		r = next
	}
	return math.Inf(1), ErrUnschedulable
}

// bcrt is the Redell–Sanfridson best-case recurrence over the tasks
// selected by hp: the largest fixed point of Rᵇ = cb + Σ ⌈Rᵇ/h_j − 1⌉·cb_j
// not exceeding the start value, reached by downward iteration from
// rStart. Interference is summed in ascending index order.
func bcrt(cb float64, tasks []Task, hp uint64, rStart float64) float64 {
	if hp == 0 {
		return cb
	}
	r := rStart
	if r < cb {
		r = cb
	}
	for iter := 0; iter < maxIterations; iter++ {
		next := cb
		for m := hp; m != 0; m &= m - 1 {
			t := &tasks[bits.TrailingZeros64(m)]
			k := math.Ceil(r/t.Period - 1)
			if k < 0 {
				k = 0
			}
			next += k * t.BCET
		}
		if next >= r {
			// Fixed point (or would increase: converged).
			return r
		}
		r = next
	}
	return r
}

// WCRT computes the exact worst-case response time of a task with
// execution demand cw under interference from the higher-priority tasks
// hp, by the Joseph–Pandya fixed point started at cw. The divergence
// horizon is divergenceFactor times the longest period involved.
func WCRT(cw float64, hp []Task) (float64, error) {
	bound := cw
	for _, t := range hp {
		if t.Period > bound {
			bound = t.Period
		}
	}
	return wcrt(cw, hp, allMask(len(hp)), bound*divergenceFactor)
}

// BCRT computes the exact best-case response time (Redell–Sanfridson)
// under interference from the higher-priority tasks hp, by downward
// iteration from rStart (use the task's WCRT, or any upper bound such as
// its period).
func BCRT(cb float64, hp []Task, rStart float64) float64 {
	return bcrt(cb, hp, allMask(len(hp)), rStart)
}

// Result bundles the response-time analysis outcome for one task at one
// priority level.
type Result struct {
	WCRT    float64 // worst-case response time Rʷ
	BCRT    float64 // best-case response time Rᵇ
	Latency float64 // L = Rᵇ                  (paper Eq. 2)
	Jitter  float64 // J = Rʷ − Rᵇ             (paper Eq. 2)

	// DeadlineMet reports Rʷ ≤ Period (implicit deadlines).
	DeadlineMet bool
	// Stable reports the task's stability constraint L + a·J ≤ b.
	Stable bool
}

// Analyze computes response times, latency, jitter and the stability
// verdict for task t under interference from the higher-priority set hp.
// It is AnalyzeMask with every task of hp selected.
func Analyze(t Task, hp []Task) Result {
	return AnalyzeMask(t, hp, allMask(len(hp)))
}

// AnalyzeMask is the analysis kernel every entry point goes through: it
// computes response times, latency, jitter and the stability verdict for
// task t under interference from the tasks[j] whose bit j is set in hp
// (t itself may sit in tasks, as long as its own bit is clear). No task is
// copied and nothing is allocated. A task that is unschedulable — or
// whose response time exceeds its (implicit) deadline, which every
// consumer treats as failure — yields infinite WCRT and Stable = false;
// bounding the fixed-point iteration at the deadline keeps
// near-saturation hp sets cheap to reject.
func AnalyzeMask(t Task, tasks []Task, hp uint64) Result {
	rw, err := wcrt(t.WCET, tasks, hp, t.Period)
	if err != nil {
		return Result{WCRT: math.Inf(1), BCRT: 0, Latency: 0, Jitter: math.Inf(1)}
	}
	rb := bcrt(t.BCET, tasks, hp, rw)
	res := Result{
		WCRT:    rw,
		BCRT:    rb,
		Latency: rb,
		Jitter:  rw - rb,
	}
	res.DeadlineMet = rw <= t.Period+1e-12
	res.Stable = res.DeadlineMet && t.StabilitySatisfied(res.Latency, res.Jitter)
	return res
}

// AnalyzeAll analyzes every task under the priority order given by prio:
// prio[i] is the priority of tasks[i], where larger numbers mean higher
// priority (the paper's ρ convention) and all values are distinct. The
// returned slice is indexed like tasks.
func AnalyzeAll(tasks []Task, prio []int) []Result {
	return AnalyzeAllInto(tasks, prio, nil)
}

// AnalyzeAllInto is AnalyzeAll appending into out[:0] when its capacity
// suffices, so a caller that keeps its result slice across calls analyzes
// without allocating. Each task's higher-priority set is one mask built
// from prio. It panics if prio and tasks differ in length or tasks holds
// more than MaxMaskTasks tasks.
func AnalyzeAllInto(tasks []Task, prio []int, out []Result) []Result {
	if len(prio) != len(tasks) {
		panic("rta: priority vector length mismatch")
	}
	if len(tasks) > MaxMaskTasks {
		panic("rta: more than 64 tasks for a higher-priority mask")
	}
	if cap(out) < len(tasks) {
		out = make([]Result, len(tasks))
	}
	out = out[:len(tasks)]
	for i, t := range tasks {
		var hp uint64
		for j, p := range prio {
			if p > prio[i] {
				hp |= 1 << uint(j)
			}
		}
		out[i] = AnalyzeMask(t, tasks, hp)
	}
	return out
}
