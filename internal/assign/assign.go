// Package assign implements the paper's core contribution: priority
// assignment for control tasks under the jitter-margin stability
// constraint L + a·J ≤ b (paper Eq. 5), where latency L and jitter J come
// from exact best-/worst-case response-time analysis.
//
// Because the jitter J = Rʷ − Rᵇ is NOT monotone in a task's priority
// (see the anomaly discussion, paper Sec. IV and reference [20]),
// Audsley-style greedy lowest-priority-first assignment is incomplete
// here: a task can be stable at a low priority yet unstable at a higher
// one, so an unlucky greedy choice at a low level can strand the
// remaining tasks. The package therefore provides:
//
//   - Backtracking — the paper's Algorithm 1: lowest-priority-first
//     assignment that recurses over every stable candidate and backtracks
//     on failure. Sound and complete; worst-case exponential, quadratic
//     on average because anomalies are rare. With Options.Memoize it
//     also remembers every set of remaining tasks that cannot be
//     completed, so no set is searched twice and an infeasible set
//     costs at most one expansion per subset instead of one per order.
//   - UnsafeQuadratic — the baseline of reference [20] "modified to use
//     the exact response times": at each level it assigns the remaining
//     task with maximum stability slack, never backtracks, and never
//     verifies; monotonicity-assuming, O(n²) evaluations, occasionally
//     produces invalid assignments (paper Table I).
//   - AudsleyGreedy — classic OPA with exact tests and no backtracking:
//     sound (returns only valid assignments) but incomplete.
//   - Exhaustive — all-permutations ground truth for small n, used to
//     property-test soundness and completeness of the others.
//
// Priorities follow the paper's convention: ρ_i > ρ_j means task i has
// higher priority; numeric levels are 1 (lowest) through n (highest).
package assign

import (
	"math"
	"math/bits"

	"ctrlsched/internal/rta"
)

// MaxTasks is the largest task set the assignment algorithms accept: task
// subsets are represented as bitmasks.
const MaxTasks = 31

// Stats counts the work done by an assignment algorithm.
type Stats struct {
	// Evaluations is the number of exact response-time feasibility
	// evaluations (the dominant cost).
	Evaluations int
	// Backtracks counts failed recursive descents (Backtracking only).
	Backtracks int
}

// Result is the outcome of a priority-assignment algorithm.
type Result struct {
	// Priorities[i] is the priority level of tasks[i] (1 = lowest,
	// n = highest); nil when the algorithm proves nothing assignable.
	Priorities []int
	// Valid reports whether Priorities is a verified stable assignment:
	// every task meets its deadline and its stability constraint.
	Valid bool
	// Aborted reports that a budgeted backtracking search ran out of
	// evaluations before finding an assignment or proving infeasibility.
	Aborted bool
	Stats   Stats
}

// Options tunes the backtracking algorithm.
type Options struct {
	// Memoize remembers every candidate set whose subtree the search has
	// explored to the end without finding an assignment, and fails that
	// set at once when another branch reaches it. Whether a set of
	// remaining tasks can fill the levels above those already assigned
	// depends only on the set (lower-priority tasks never interfere), so
	// no set is ever expanded twice and no (set, task) evaluation is
	// repeated. Skipping a subtree known to fail leaves the DFS order as
	// it is: a search that finishes returns the same Valid, Priorities
	// and Evaluations as without the memo, in fewer Backtracks. The
	// paper's Algorithm 1 does not memoize; enabling it trades memory
	// (one entry per failed set) for worst-case time.
	Memoize bool
	// MaxEvaluations, when positive, aborts the search at the first
	// recursion step after that many exact response-time evaluations.
	// An aborted search stops at once, reports Aborted=true and
	// Valid=false — "no assignment found within budget", NOT a proof of
	// infeasibility — and marks no set as failed. Use it to bound the
	// exponential worst case on (mostly infeasible) instances.
	MaxEvaluations int
}

// SearchBudget is the MaxEvaluations of every memoized search a request
// reaches: the service's backtracking analyze and the co-design
// engine's DefaultAssign. With the failed-set memo, evaluations, not
// recursion steps, bind, so the budget is sized in wall time: the
// slowest searches known to exhaust it, 20- and 24-task sets with two
// tasks stable only at the top level, stop after 0.10–0.15 s on a
// 2-vCPU host (BENCH_results.txt), while no search on the default
// generator at 12 to 24 tasks needs more than a few thousand
// evaluations.
const SearchBudget = 500_000

// evalRecord is the exact per-level analysis outcome of one (candidate
// set, task) pair: the stability slack b − (L + a·J) at the lowest
// priority of the set (−Inf when unschedulable or past the deadline) and
// the stability verdict. The verdict uses the same tolerance as Validate
// so the two never disagree on borderline instances.
type evalRecord struct {
	slack  float64
	stable bool
}

// evaluator runs the exact response-time evaluations of one assignment
// search. A candidate set is already a bitmask over the search's task
// slice, so each evaluation hands it straight to rta.AnalyzeMask: no task
// is copied and nothing is allocated per evaluation.
type evaluator struct {
	tasks []rta.Task
	stats *Stats
}

// record computes the exact analysis record of tasks[i] at the lowest
// priority among the subset `set` (hp = set \ {i}).
func (e *evaluator) record(set uint32, i int) evalRecord {
	e.stats.Evaluations++
	res := rta.AnalyzeMask(e.tasks[i], e.tasks, uint64(set&^(1<<uint(i))))
	if math.IsInf(res.WCRT, 1) || !res.DeadlineMet {
		return evalRecord{slack: math.Inf(-1), stable: false}
	}
	return evalRecord{slack: e.tasks[i].Slack(res.Latency, res.Jitter), stable: res.Stable}
}

// feasible reports whether tasks[i] is stable at the lowest priority of
// `set`.
func (e *evaluator) feasible(set uint32, i int) bool {
	return e.record(set, i).stable
}

// slack returns the stability slack of tasks[i] at the lowest priority of
// `set` together with the exact stability verdict at that level.
func (e *evaluator) slack(set uint32, i int) (float64, bool) {
	rec := e.record(set, i)
	return rec.slack, rec.stable
}

// Validate checks an assignment exactly: every task must meet its
// deadline and stability constraint under the given priorities (larger
// value = higher priority; values must be distinct).
func Validate(tasks []rta.Task, prio []int) bool {
	if len(prio) != len(tasks) {
		return false
	}
	seen := map[int]bool{}
	for _, p := range prio {
		if seen[p] {
			return false
		}
		seen[p] = true
	}
	for _, res := range rta.AnalyzeAll(tasks, prio) {
		if !res.Stable {
			return false
		}
	}
	return true
}

// Backtracking runs the paper's Algorithm 1 with default options.
func Backtracking(tasks []rta.Task) Result {
	return BacktrackingOpts(tasks, Options{})
}

// BacktrackingOpts runs Algorithm 1 with a fresh Searcher. Callers that
// search many task-set variants in a loop (the co-design engine, the
// batch service) should hold a Searcher and call its Backtracking method
// instead, so the priority buffer and the failed-set memo are reused
// across searches.
func BacktrackingOpts(tasks []rta.Task, opt Options) Result {
	var s Searcher
	return s.Backtracking(tasks, opt)
}

// Searcher owns the reusable state of repeated backtracking searches:
// the priority scratch vector and the memo of failed candidate sets. A
// zero Searcher is ready to use; after the first search its buffers are
// retained, so searching many task-set variants of the same size
// performs no per-search heap allocation beyond the returned Priorities
// slice and new memo entries. A Searcher must not be shared between
// goroutines.
type Searcher struct {
	prio []int
	dead map[uint32]struct{}
}

// Backtracking runs the paper's Algorithm 1 on this searcher's reusable
// buffers: assign priority levels bottom-up; at each level try every
// remaining task that is stable there, in index order, recurse, and
// backtrack when the remainder cannot be completed. Complete: if any
// stable assignment exists, one is returned. Results are identical to
// BacktrackingOpts.
func (s *Searcher) Backtracking(tasks []rta.Task, opt Options) Result {
	n := len(tasks)
	if n == 0 {
		return Result{Priorities: []int{}, Valid: true}
	}
	if n > MaxTasks {
		panic("assign: too many tasks for bitmask representation")
	}
	// For valid tasks (see rta.Task.Validate), L = BCRT ≥ BCET and
	// J = WCRT − BCRT ≥ 0 at every level, so a task whose constraint
	// fails at (BCET, 0) is stable at no level and the set has no valid
	// assignment: fail before the exponential search.
	for _, t := range tasks {
		if !t.StabilitySatisfied(t.BCET, 0) {
			return Result{}
		}
	}
	res := Result{}
	ev := evaluator{tasks: tasks, stats: &res.Stats}
	if cap(s.prio) < n {
		s.prio = make([]int, n)
	}
	prio := s.prio[:n]
	// dead holds every remaining set proven impossible to complete; nil
	// without Memoize.
	var dead map[uint32]struct{}
	if opt.Memoize {
		if s.dead == nil {
			s.dead = make(map[uint32]struct{})
		}
		clear(s.dead)
		dead = s.dead
	}

	var bt func(remaining uint32, level int) bool
	bt = func(remaining uint32, level int) bool {
		if remaining == 0 {
			return true
		}
		if _, failed := dead[remaining]; failed {
			return false
		}
		if opt.MaxEvaluations > 0 && res.Stats.Evaluations >= opt.MaxEvaluations {
			res.Aborted = true
			return false
		}
		for rest := remaining; rest != 0; rest &= rest - 1 {
			i := bits.TrailingZeros32(rest)
			if !ev.feasible(remaining, i) {
				continue
			}
			prio[i] = level
			if bt(remaining&^(1<<uint(i)), level+1) {
				return true
			}
			if res.Aborted {
				return false
			}
			res.Stats.Backtracks++
		}
		if dead != nil {
			dead[remaining] = struct{}{}
		}
		return false
	}

	if bt(uint32(1)<<uint(n)-1, 1) {
		// Copy out of the searcher's scratch: the result must stay valid
		// after the next search reuses the buffer.
		res.Priorities = append([]int(nil), prio...)
		res.Valid = true // by construction: every level verified exactly
	}
	return res
}

// UnsafeQuadratic is the monotonicity-assuming baseline (paper Sec. V,
// "Unsafe Quadratic"): bottom-up, at each level it permanently assigns the
// remaining task with the LARGEST stability slack, without requiring the
// slack to be nonnegative and without ever revisiting a decision. It
// always returns a complete assignment; Valid reports whether the
// assignment actually guarantees stability (in the paper's Table I, the
// fraction of benchmarks where it does not is the anomaly rate).
func UnsafeQuadratic(tasks []rta.Task) Result {
	n := len(tasks)
	res := Result{Priorities: make([]int, n)}
	if n == 0 {
		res.Valid = true
		return res
	}
	if n > MaxTasks {
		panic("assign: too many tasks for bitmask representation")
	}
	ev := evaluator{tasks: tasks, stats: &res.Stats}
	remaining := uint32(1)<<uint(n) - 1
	valid := true
	for level := 1; level <= n; level++ {
		best, bestSlack, bestStable := -1, math.Inf(-1), false
		for i := 0; i < n; i++ {
			if remaining&(1<<uint(i)) == 0 {
				continue
			}
			if s, stable := ev.slack(remaining, i); s > bestSlack || best < 0 {
				best, bestSlack, bestStable = i, s, stable
			}
		}
		res.Priorities[best] = level
		remaining &^= 1 << uint(best)
		if !bestStable {
			valid = false // this task violates Eq. 5 at its final level
		}
	}
	res.Valid = valid
	return res
}

// AudsleyGreedy is classic optimal-priority-assignment greedy search with
// exact tests: at each level it assigns the FIRST remaining task that is
// stable there and never backtracks. It is sound (a returned assignment is
// valid) but incomplete under the jitter anomaly.
func AudsleyGreedy(tasks []rta.Task) Result {
	n := len(tasks)
	res := Result{}
	if n == 0 {
		return Result{Priorities: []int{}, Valid: true}
	}
	if n > MaxTasks {
		panic("assign: too many tasks for bitmask representation")
	}
	prio := make([]int, n)
	// The greedy candidate set strictly shrinks each level, so a
	// (set, task) pair never recurs, and the n² exact evaluations
	// allocate nothing.
	ev := evaluator{tasks: tasks, stats: &res.Stats}
	remaining := uint32(1)<<uint(n) - 1
	for level := 1; level <= n; level++ {
		assigned := false
		for i := 0; i < n && !assigned; i++ {
			if remaining&(1<<uint(i)) == 0 {
				continue
			}
			if ev.feasible(remaining, i) {
				prio[i] = level
				remaining &^= 1 << uint(i)
				assigned = true
			}
		}
		if !assigned {
			return res // stuck: no task stable at this level
		}
	}
	res.Priorities = prio
	res.Valid = true
	return res
}

// Exhaustive searches all n! priority orders and returns a valid
// assignment if one exists. Ground truth for small n (it refuses n > 9).
func Exhaustive(tasks []rta.Task) Result {
	n := len(tasks)
	if n > 9 {
		panic("assign: Exhaustive limited to n ≤ 9")
	}
	res := Result{}
	if n == 0 {
		return Result{Priorities: []int{}, Valid: true}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	prio := make([]int, n)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == n {
			// perm[level-1] = task index at that level.
			for level, i := range perm {
				prio[i] = level + 1
			}
			res.Stats.Evaluations += n
			return Validate(tasks, prio)
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if rec(k + 1) {
				return true
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return false
	}
	if rec(0) {
		res.Priorities = append([]int(nil), prio...)
		res.Valid = true
	}
	return res
}
