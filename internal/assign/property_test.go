package assign

import (
	"math"
	"math/rand"
	"testing"

	"ctrlsched/internal/rta"
)

// isPermutation reports whether prio is exactly the levels 1..n.
func isPermutation(prio []int, n int) bool {
	if len(prio) != n {
		return false
	}
	seen := make([]bool, n+1)
	for _, p := range prio {
		if p < 1 || p > n || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// TestEveryHeuristicOrderPassesValidate is the shared soundness property
// of all assignment methods: whenever a method returns a priority order,
// the order is a permutation of levels 1..n and the method's Valid flag
// agrees exactly with the independent Validate re-check. (A heuristic may
// return an invalid order — that is the paper's point — but it must
// never mislabel it.)
func TestEveryHeuristicOrderPassesValidate(t *testing.T) {
	methods := []struct {
		name string
		run  func([]rta.Task) Result
	}{
		{"rm", RateMonotonic},
		{"slackmono", SlackMonotonic},
		{"unsafe", UnsafeQuadratic},
		{"audsley", AudsleyGreedy},
		{"backtracking", Backtracking},
		{"backtracking-memo", func(ts []rta.Task) Result {
			return BacktrackingOpts(ts, Options{Memoize: true})
		}},
	}
	rng := rand.New(rand.NewSource(414))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(7)
		tasks := randomTaskSet(rng, n)
		for _, m := range methods {
			res := m.run(tasks)
			if res.Priorities == nil {
				if res.Valid {
					t.Fatalf("trial %d %s: valid result without priorities", trial, m.name)
				}
				continue
			}
			if !isPermutation(res.Priorities, n) {
				t.Fatalf("trial %d %s: priorities %v not a permutation of 1..%d", trial, m.name, res.Priorities, n)
			}
			if got := Validate(tasks, res.Priorities); got != res.Valid {
				t.Fatalf("trial %d %s: Valid=%v but Validate=%v for %v", trial, m.name, res.Valid, got, res.Priorities)
			}
		}
	}
}

// TestPrecheckNeverRejectsSolvableSet checks Backtracking's verdict
// against Exhaustive on seeded sets of up to 8 tasks at most 75 %
// utilized. All tasks but one carry the implicit-deadline constraint
// L + J ≤ h; the tight one has con_b at 0.9, 1 or 1.1 times its BCET,
// half the time with BCET = WCET, so that it can be stable at the top
// level with zero jitter. A set the pre-check fails must have no valid
// assignment, and the sampling must reach both pre-check failures and
// solvable sets with a tight task.
func TestPrecheckNeverRejectsSolvableSet(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rejected, solvable := 0, 0
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(8)
		tasks := make([]rta.Task, n)
		for i := range tasks {
			h := float64(1 + rng.Intn(10))
			cw := h * 0.75 / float64(n) * rng.Float64()
			tasks[i] = rta.Task{BCET: cw * (0.2 + 0.8*rng.Float64()), WCET: cw, Period: h, ConA: 1, ConB: h}
		}
		tight := &tasks[rng.Intn(n)]
		tight.ConA = 1 + 2*rng.Float64()
		if rng.Intn(2) == 0 {
			tight.BCET = tight.WCET
		}
		tight.ConB = tight.BCET * []float64{0.9, 1, 1.1}[rng.Intn(3)]
		ex, bt := Exhaustive(tasks), Backtracking(tasks)
		if bt.Valid != ex.Valid {
			t.Fatalf("trial %d: backtracking=%v exhaustive=%v on %+v", trial, bt.Valid, ex.Valid, tasks)
		}
		if !bt.Valid && bt.Stats.Evaluations == 0 {
			rejected++
		}
		if ex.Valid {
			solvable++
		}
	}
	if rejected == 0 || solvable == 0 {
		t.Fatalf("degenerate sampling: %d pre-check failures, %d solvable sets", rejected, solvable)
	}
}

// TestMemoizedSlackMatchesUnmemoized pins the tentpole's memoized
// evaluator against fresh unmemoized evaluation on 1000 random
// (task set, candidate subset, task) queries, with every query repeated
// so both the fill and the hit path are exercised: the cached slack and
// stability verdict must equal the recomputed ones bit for bit.
func TestMemoizedSlackMatchesUnmemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	queries := 0
	for queries < 1000 {
		n := 2 + rng.Intn(7)
		tasks := randomTaskSet(rng, n)
		var memoStats Stats
		memo := newEvaluator(tasks, true, &memoStats)
		for q := 0; q < 25 && queries < 1000; q++ {
			set := uint32(rng.Intn(1<<uint(n)-1) + 1)
			// Pick a member of the set.
			var members []int
			for i := 0; i < n; i++ {
				if set&(1<<uint(i)) != 0 {
					members = append(members, i)
				}
			}
			i := members[rng.Intn(len(members))]

			var freshStats Stats
			fresh := newEvaluator(tasks, false, &freshStats)
			wantSlack, wantStable := fresh.slack(set, i)
			for rep := 0; rep < 2; rep++ { // fill, then hit
				gotSlack, gotStable := memo.slack(set, i)
				if gotStable != wantStable ||
					(gotSlack != wantSlack && !(math.IsInf(gotSlack, -1) && math.IsInf(wantSlack, -1))) {
					t.Fatalf("n=%d set=%b task=%d rep=%d: memoized (%v, %v) != unmemoized (%v, %v)",
						n, set, i, rep, gotSlack, gotStable, wantSlack, wantStable)
				}
				if gotFeasible := memo.feasible(set, i); gotFeasible != wantStable {
					t.Fatalf("feasible/slack verdicts disagree on the same record")
				}
			}
			queries++
		}
		// The repeats must have been served from the memo: one exact
		// evaluation per distinct (set, task) query at most.
		if memoStats.Evaluations > 25 {
			t.Fatalf("memoized evaluator recomputed: %d evaluations for ≤ 25 distinct queries", memoStats.Evaluations)
		}
	}
}

// TestEvaluatorAllocationFree verifies that an unmemoized evaluator
// performs no per-query heap allocation: each candidate set goes to the
// rta mask kernel without a copy, and there is no scratch to warm.
func TestEvaluatorAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tasks := randomTaskSet(rng, 10)
	var stats Stats
	ev := newEvaluator(tasks, false, &stats)
	full := uint32(1)<<10 - 1
	allocs := testing.AllocsPerRun(200, func() {
		ev.record(full, 3)
		ev.slack(full>>1, 2)
		ev.feasible(full>>2, 1)
	})
	if allocs != 0 {
		t.Fatalf("evaluator allocates %v times per query", allocs)
	}
}
