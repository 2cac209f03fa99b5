package assign

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ctrlsched/internal/rta"
	"ctrlsched/internal/taskgen"
)

// This file keeps a reference implementation of the response-time
// recurrences and the assignment searches as they were before the
// analysis took its higher-priority set as a bitmask: every evaluation
// copies the interfering tasks into a scratch slice and analyzes that
// slice. The differential tests below check that the mask kernel and the
// searches built on it agree with the reference bit for bit, on every
// Result field and every Stats counter.

func refWCRTBounded(cw float64, hp []rta.Task, bound float64) (float64, error) {
	if len(hp) == 0 {
		if cw > bound {
			return math.Inf(1), rta.ErrUnschedulable
		}
		return cw, nil
	}
	var util float64
	for _, t := range hp {
		util += t.WCET / t.Period
	}
	if util >= 1 {
		return math.Inf(1), rta.ErrUnschedulable
	}
	r := cw
	for iter := 0; iter < 100000; iter++ {
		next := cw
		for _, t := range hp {
			next += math.Ceil(r/t.Period) * t.WCET
		}
		if next == r {
			return r, nil
		}
		if next > bound || math.IsInf(next, 1) {
			return math.Inf(1), rta.ErrUnschedulable
		}
		r = next
	}
	return math.Inf(1), rta.ErrUnschedulable
}

func refBCRT(cb float64, hp []rta.Task, rStart float64) float64 {
	if len(hp) == 0 {
		return cb
	}
	r := rStart
	if r < cb {
		r = cb
	}
	for iter := 0; iter < 100000; iter++ {
		next := cb
		for _, t := range hp {
			k := math.Ceil(r/t.Period - 1)
			if k < 0 {
				k = 0
			}
			next += k * t.BCET
		}
		if next >= r {
			return r
		}
		r = next
	}
	return r
}

func refAnalyze(t rta.Task, hp []rta.Task) rta.Result {
	rw, err := refWCRTBounded(t.WCET, hp, t.Period)
	if err != nil {
		return rta.Result{WCRT: math.Inf(1), BCRT: 0, Latency: 0, Jitter: math.Inf(1)}
	}
	rb := refBCRT(t.BCET, hp, rw)
	res := rta.Result{WCRT: rw, BCRT: rb, Latency: rb, Jitter: rw - rb}
	res.DeadlineMet = rw <= t.Period+1e-12
	res.Stable = res.DeadlineMet && t.StabilitySatisfied(res.Latency, res.Jitter)
	return res
}

func refAnalyzeAll(tasks []rta.Task, prio []int) []rta.Result {
	out := make([]rta.Result, len(tasks))
	for i, t := range tasks {
		var hp []rta.Task
		for j, u := range tasks {
			if prio[j] > prio[i] {
				hp = append(hp, u)
			}
		}
		out[i] = refAnalyze(t, hp)
	}
	return out
}

// refEvaluator copies each candidate set's interferers into its scratch
// slice before analyzing.
type refEvaluator struct {
	tasks []rta.Task
	hp    []rta.Task
	memo  map[uint64]evalRecord
	stats *Stats
}

func (e *refEvaluator) record(set uint32, i int) evalRecord {
	key := uint64(set)<<8 | uint64(i)
	if e.memo != nil {
		if rec, ok := e.memo[key]; ok {
			return rec
		}
	}
	e.stats.Evaluations++
	hp := e.hp[:0]
	mask := set &^ (1 << uint(i))
	for j := range e.tasks {
		if mask&(1<<uint(j)) != 0 {
			hp = append(hp, e.tasks[j])
		}
	}
	e.hp = hp
	res := refAnalyze(e.tasks[i], hp)
	rec := evalRecord{slack: math.Inf(-1)}
	if !math.IsInf(res.WCRT, 1) && res.DeadlineMet {
		rec = evalRecord{slack: e.tasks[i].Slack(res.Latency, res.Jitter), stable: res.Stable}
	}
	if e.memo != nil {
		e.memo[key] = rec
	}
	return rec
}

func refUnsafeQuadratic(tasks []rta.Task) Result {
	n := len(tasks)
	res := Result{Priorities: make([]int, n)}
	if n == 0 {
		res.Valid = true
		return res
	}
	ev := &refEvaluator{tasks: tasks, stats: &res.Stats}
	remaining := uint32(1)<<uint(n) - 1
	valid := true
	for level := 1; level <= n; level++ {
		best, bestSlack, bestStable := -1, math.Inf(-1), false
		for i := 0; i < n; i++ {
			if remaining&(1<<uint(i)) == 0 {
				continue
			}
			if rec := ev.record(remaining, i); rec.slack > bestSlack || best < 0 {
				best, bestSlack, bestStable = i, rec.slack, rec.stable
			}
		}
		res.Priorities[best] = level
		remaining &^= 1 << uint(best)
		if !bestStable {
			valid = false
		}
	}
	res.Valid = valid
	return res
}

func refAudsleyGreedy(tasks []rta.Task) Result {
	n := len(tasks)
	res := Result{}
	if n == 0 {
		return Result{Priorities: []int{}, Valid: true}
	}
	prio := make([]int, n)
	ev := &refEvaluator{tasks: tasks, stats: &res.Stats}
	remaining := uint32(1)<<uint(n) - 1
	for level := 1; level <= n; level++ {
		assigned := false
		for i := 0; i < n && !assigned; i++ {
			if remaining&(1<<uint(i)) == 0 {
				continue
			}
			if ev.record(remaining, i).stable {
				prio[i] = level
				remaining &^= 1 << uint(i)
				assigned = true
			}
		}
		if !assigned {
			return res
		}
	}
	res.Priorities = prio
	res.Valid = true
	return res
}

func refBacktracking(tasks []rta.Task, opt Options) Result {
	n := len(tasks)
	if n == 0 {
		return Result{Priorities: []int{}, Valid: true}
	}
	for _, t := range tasks {
		if !t.StabilitySatisfied(t.BCET, 0) {
			return Result{}
		}
	}
	res := Result{}
	ev := &refEvaluator{tasks: tasks, stats: &res.Stats}
	if opt.Memoize {
		ev.memo = make(map[uint64]evalRecord)
	}
	prio := make([]int, n)
	nodes := 0
	var bt func(remaining uint32, level int) bool
	bt = func(remaining uint32, level int) bool {
		if remaining == 0 {
			return true
		}
		nodes++
		if opt.MaxEvaluations > 0 &&
			(res.Stats.Evaluations >= opt.MaxEvaluations || nodes >= opt.MaxEvaluations) {
			res.Aborted = true
			return false
		}
		var order []int
		for i := 0; i < n; i++ {
			if remaining&(1<<uint(i)) != 0 {
				order = append(order, i)
			}
		}
		for _, i := range order {
			if !ev.record(remaining, i).stable {
				continue
			}
			prio[i] = level
			if bt(remaining&^(1<<uint(i)), level+1) {
				return true
			}
			res.Stats.Backtracks++
		}
		return false
	}
	if bt(uint32(1)<<uint(n)-1, 1) {
		res.Priorities = append([]int(nil), prio...)
		res.Valid = true
	}
	return res
}

// differentialEdgeSet is a hand-built set at one of the kernel's
// boundaries, with a check that it really sits there.
type differentialEdgeSet struct {
	name  string
	tasks []rta.Task
	edge  func([]rta.Task) bool
}

func differentialEdgeSets() []differentialEdgeSet {
	loose := func(name string, cb, cw, h float64) rta.Task {
		return rta.Task{Name: name, BCET: cb, WCET: cw, Period: h, ConA: 1, ConB: h}
	}
	topOnly := func(name string, c, h float64) rta.Task {
		return rta.Task{Name: name, BCET: c, WCET: c, Period: h, ConA: 1, ConB: c}
	}
	return []differentialEdgeSet{
		{"hp utilization at least 1", // b and c above a load the processor fully
			[]rta.Task{loose("a", 0.5, 0.5, 1), loose("b", 0.25, 0.5, 1), loose("c", 0.5, 0.75, 1.5)},
			func(ts []rta.Task) bool { return math.IsInf(rta.AnalyzeAll(ts, []int{1, 2, 3})[0].WCRT, 1) }},
		{"WCRT exactly at the period", // the lower task finishes at R = 2 = h
			[]rta.Task{loose("a", 1, 1, 2), loose("b", 0.5, 1, 2)},
			func(ts []rta.Task) bool {
				r := rta.AnalyzeAll(ts, []int{1, 2})[0]
				return r.WCRT == ts[0].Period && r.DeadlineMet
			}},
		{"empty hp",
			[]rta.Task{{Name: "solo", BCET: 0.25, WCET: 0.5, Period: 1, ConA: 1.5, ConB: 0.75}},
			func(ts []rta.Task) bool { return rta.AnalyzeAll(ts, []int{1})[0].WCRT == ts[0].WCET }},
		{"equal periods",
			[]rta.Task{loose("a", 0.05, 0.1, 1), loose("b", 0.1, 0.2, 1), loose("c", 0.125, 0.25, 1), loose("d", 0.1, 0.15, 1)},
			func(ts []rta.Task) bool { return Backtracking(ts).Valid }},
		{"stable only at the top level", // L = cᵇ and J = 0 only without interference
			[]rta.Task{topOnly("top", 0.004, 0.01), loose("x", 0.001, 0.002, 0.02), loose("y", 0.002, 0.003, 0.03)},
			func(ts []rta.Task) bool {
				return rta.AnalyzeAll(ts, []int{3, 1, 2})[0].Stable && !rta.AnalyzeAll(ts, []int{2, 1, 3})[0].Stable &&
					Backtracking(ts).Valid
			}},
		{"two tasks stable only at the top level", // no assignment; only the budget stops the search
			[]rta.Task{
				loose("a", 0.0002, 0.0004, 0.010), loose("b", 0.0002, 0.0004, 0.011),
				topOnly("p", 0.0004, 0.012), topOnly("q", 0.0004, 0.013),
				loose("c", 0.0002, 0.0004, 0.014), loose("d", 0.0002, 0.0004, 0.015),
				loose("e", 0.0002, 0.0004, 0.016), loose("f", 0.0002, 0.0004, 0.017),
				loose("g", 0.0002, 0.0004, 0.018), loose("h", 0.0002, 0.0004, 0.019),
			},
			func(ts []rta.Task) bool { return BacktrackingOpts(ts, Options{MaxEvaluations: 20000}).Aborted }},
	}
}

// checkDifferential runs every search and the full analysis on tasks
// through both implementations and fails on any difference.
func checkDifferential(t *testing.T, name string, tasks []rta.Task, rng *rand.Rand) {
	t.Helper()
	budget := Options{MaxEvaluations: 20000}
	memo := Options{Memoize: true, MaxEvaluations: 20000}
	searches := []struct {
		method    string
		got, want Result
	}{
		{"UnsafeQuadratic", UnsafeQuadratic(tasks), refUnsafeQuadratic(tasks)},
		{"AudsleyGreedy", AudsleyGreedy(tasks), refAudsleyGreedy(tasks)},
		{"Backtracking", BacktrackingOpts(tasks, budget), refBacktracking(tasks, budget)},
		{"Backtracking memoized", BacktrackingOpts(tasks, memo), refBacktracking(tasks, memo)},
	}
	var orders [][]int
	for _, s := range searches {
		if !reflect.DeepEqual(s.got, s.want) {
			t.Fatalf("%s: %s gives %+v, the copying reference %+v", name, s.method, s.got, s.want)
		}
		if s.got.Priorities != nil {
			orders = append(orders, s.got.Priorities)
		}
	}
	perm := rng.Perm(len(tasks))
	for i := range perm {
		perm[i]++
	}
	for _, prio := range append(orders, perm) {
		got, want := rta.AnalyzeAll(tasks, prio), refAnalyzeAll(tasks, prio)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: AnalyzeAll(%v) task %d gives %+v, the copying reference %+v", name, prio, i, got[i], want[i])
			}
		}
	}
}

// sameBits compares two results bit for bit, float fields included.
func sameBits(a, b rta.Result) bool {
	return math.Float64bits(a.WCRT) == math.Float64bits(b.WCRT) &&
		math.Float64bits(a.BCRT) == math.Float64bits(b.BCRT) &&
		math.Float64bits(a.Latency) == math.Float64bits(b.Latency) &&
		math.Float64bits(a.Jitter) == math.Float64bits(b.Jitter) &&
		a.DeadlineMet == b.DeadlineMet && a.Stable == b.Stable
}

// TestMaskKernelMatchesCopyingReference compares the mask kernel and the
// searches on it with the copying reference on seeded generator sets at
// every size up to MaxTasks and on the hand-built edge sets.
func TestMaskKernelMatchesCopyingReference(t *testing.T) {
	gen := taskgen.NewGenerator(taskgen.Config{GridPoints: 6})
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{2, 4, 8, 12, 16, 20, MaxTasks} {
		sets := 24
		if n > 16 {
			sets = 8
		}
		for k := 0; k < sets; k++ {
			checkDifferential(t, "generated set", gen.TaskSet(rng, n), rng)
		}
	}
	for _, set := range differentialEdgeSets() {
		if !set.edge(set.tasks) {
			t.Fatalf("edge set %q is not at its edge", set.name)
		}
		checkDifferential(t, set.name, set.tasks, rng)
	}
}
