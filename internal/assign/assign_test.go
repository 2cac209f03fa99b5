package assign

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ctrlsched/internal/rta"
)

// randomTaskSet draws a small synthetic task set with tight-ish stability
// constraints; the same generator family used to find the hardcoded
// anomaly instances below.
func randomTaskSet(rng *rand.Rand, n int) []rta.Task {
	tasks := make([]rta.Task, n)
	for i := range tasks {
		h := math.Round((1+9*rng.Float64())*10) / 10
		u := 0.1 + 0.25*rng.Float64()
		cw := math.Round(u*h*100) / 100
		if cw <= 0 {
			cw = 0.01
		}
		cb := math.Round(cw*(0.2+0.8*rng.Float64())*100) / 100
		if cb <= 0 {
			cb = 0.01
		}
		b := math.Round(cw*(1.5+3*rng.Float64())*100) / 100
		a := math.Round((1+2*rng.Float64())*100) / 100
		tasks[i] = rta.Task{Name: fmt.Sprintf("t%d", i), BCET: cb, WCET: cw, Period: h, ConA: a, ConB: b}
	}
	return tasks
}

// easySet returns tasks with generous constraints: every ordering valid.
func easySet() []rta.Task {
	return []rta.Task{
		{Name: "a", BCET: 0.5, WCET: 1, Period: 10, ConA: 1, ConB: 100},
		{Name: "b", BCET: 0.5, WCET: 1, Period: 15, ConA: 1, ConB: 100},
		{Name: "c", BCET: 0.5, WCET: 1, Period: 20, ConA: 1, ConB: 100},
	}
}

// uqInvalidSet is a benchmark instance drawn from the Table-I generator
// (plant-derived constraints) on which Unsafe Quadratic emits a complete
// but invalid assignment. Exhaustive search proves no valid assignment
// exists — the danger of the unsafe baseline is precisely that it cannot
// tell: it hands the caller an unstable system instead of reporting
// failure.
func uqInvalidSet() []rta.Task {
	return []rta.Task{
		{Name: "dc-servo#0", BCET: 0.0009496955864089607, WCET: 0.0017037924714150856, Period: 0.01120602806933418, ConA: 1, ConB: 0.003277624593449264},
		{Name: "dc-servo#1", BCET: 0.0016370765204382918, WCET: 0.0020500111119122, Period: 0.00876060942918608, ConA: 5.658781982315526, ConB: 0.006309110980109164},
		{Name: "dc-servo#2", BCET: 7.59919624701527e-05, WCET: 0.00011239190349899162, Period: 0.00535426108419207, ConA: 1.3543595775196255, ConB: 0.005807248143146606},
		{Name: "inverted-pendulum#3", BCET: 0.0007791831188495051, WCET: 0.0012633479885810611, Period: 0.006079644331811736, ConA: 1, ConB: 0.030398221659058675},
	}
}

func TestValidateDistinctPriorities(t *testing.T) {
	tasks := easySet()
	if Validate(tasks, []int{1, 1, 2}) {
		t.Fatal("duplicate priorities accepted")
	}
	if Validate(tasks, []int{1, 2}) {
		t.Fatal("wrong-length priority vector accepted")
	}
	if !Validate(tasks, []int{3, 2, 1}) {
		t.Fatal("valid assignment rejected")
	}
}

func TestBacktrackingEasySet(t *testing.T) {
	res := Backtracking(easySet())
	if !res.Valid || res.Priorities == nil {
		t.Fatal("easy set not solved")
	}
	if !Validate(easySet(), res.Priorities) {
		t.Fatal("returned assignment does not validate")
	}
	if res.Stats.Backtracks != 0 {
		t.Fatalf("easy set needed %d backtracks", res.Stats.Backtracks)
	}
}

func TestBacktrackingEmptyAndSingle(t *testing.T) {
	if res := Backtracking(nil); !res.Valid {
		t.Fatal("empty set should be trivially valid")
	}
	single := []rta.Task{{Name: "s", BCET: 1, WCET: 1, Period: 10, ConA: 1, ConB: 5}}
	res := Backtracking(single)
	if !res.Valid || res.Priorities[0] != 1 {
		t.Fatalf("single-task result %+v", res)
	}
	// Single task with impossible constraint.
	hopeless := []rta.Task{{Name: "s", BCET: 1, WCET: 2, Period: 10, ConA: 1, ConB: 0.5}}
	if res := Backtracking(hopeless); res.Valid {
		t.Fatal("hopeless task assigned")
	}
	// The same impossible constraint on the sixth of 12 tasks whose
	// other 11 fit in any order: a search alone would walk the service's
	// whole budget (2,000,037 backtracks) and answer aborted, not
	// infeasible.
	set := make([]rta.Task, 12)
	for i := range set {
		h := 0.010 + 0.001*float64(i)
		set[i] = rta.Task{Name: fmt.Sprint("t", i), BCET: 0.0002, WCET: 0.0004, Period: h, ConA: 1, ConB: h}
	}
	set[5].ConB = 0.0001
	if res := BacktrackingOpts(set, Options{Memoize: true, MaxEvaluations: 2_000_000}); res.Valid || res.Aborted {
		t.Fatalf("12-task set with a never-stable task: valid=%v aborted=%v after %d evaluations, want a verdict of infeasible",
			res.Valid, res.Aborted, res.Stats.Evaluations)
	}
}

func TestUnsafeQuadraticProducesInvalidSolution(t *testing.T) {
	tasks := uqInvalidSet()
	// The unsafe baseline produces a complete assignment no matter what…
	uq := UnsafeQuadratic(tasks)
	if uq.Priorities == nil {
		t.Fatal("UnsafeQuadratic must always return a complete assignment")
	}
	// …and on this instance the assignment is invalid.
	if uq.Valid {
		t.Fatal("expected an invalid assignment on this instance")
	}
	if Validate(tasks, uq.Priorities) {
		t.Fatal("Valid=false but assignment validates: inconsistent")
	}
	// Algorithm 1 gives the correct, definitive verdict: the instance is
	// infeasible (and exhaustive search agrees) — it never hands out an
	// invalid assignment the way the unsafe baseline does.
	bt := Backtracking(tasks)
	if bt.Valid || bt.Priorities != nil {
		t.Fatal("Backtracking claimed a solution on an infeasible instance")
	}
	if Exhaustive(tasks).Valid {
		t.Fatal("exhaustive ground truth disagrees: instance is feasible")
	}
}

// The complementary case — an anomaly where the greedy-friendly choice is
// wrong but a valid assignment exists — is exercised via the verified
// priority-anomaly instance: the victim task "x" is stable only below
// task "b", so any procedure that hoists x above b (as monotonicity
// suggests: fewer interferers!) produces an unstable loop, while
// backtracking keeps x at the bottom.
func TestBacktrackingHandlesAnomalyInstance(t *testing.T) {
	tasks := []rta.Task{
		{Name: "a", BCET: 3.04, WCET: 3.22, Period: 7.7, ConA: 1, ConB: 100},
		{Name: "b", BCET: 0.33, WCET: 0.37, Period: 1.9, ConA: 1, ConB: 100},
		{Name: "x", BCET: 4.1, WCET: 4.6, Period: 15, ConA: 4, ConB: 31},
	}
	// x at the bottom (hp = {a, b}) is stable; x above b (hp = {a}) is
	// not — the non-monotone jitter anomaly.
	bt := Backtracking(tasks)
	if !bt.Valid {
		t.Fatal("Backtracking failed on the anomaly instance")
	}
	if !Validate(tasks, bt.Priorities) {
		t.Fatal("returned assignment invalid")
	}
	// Verify x really is pinned to the lowest priority.
	if bt.Priorities[2] != 1 {
		t.Fatalf("expected x at priority 1, got %v", bt.Priorities)
	}
	// And that the naive "raise x above b" ordering is invalid.
	if Validate(tasks, []int{3, 1, 2}) {
		t.Fatal("hoisted ordering should be invalid (anomaly)")
	}
}

func TestUnsafeQuadraticValidityFlagMatchesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 400; trial++ {
		tasks := randomTaskSet(rng, 3+rng.Intn(4))
		uq := UnsafeQuadratic(tasks)
		if uq.Priorities == nil {
			t.Fatal("UnsafeQuadratic returned nil priorities")
		}
		if uq.Valid != Validate(tasks, uq.Priorities) {
			t.Fatalf("trial %d: Valid flag %v disagrees with Validate", trial, uq.Valid)
		}
	}
}

// Soundness + completeness of Algorithm 1 against exhaustive ground truth.
func TestBacktrackingMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	feasibleSeen, infeasibleSeen := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(3) // 3..5 tasks: exhaustive is cheap
		tasks := randomTaskSet(rng, n)
		ex := Exhaustive(tasks)
		bt := Backtracking(tasks)
		if ex.Valid != bt.Valid {
			t.Fatalf("trial %d: exhaustive=%v backtracking=%v", trial, ex.Valid, bt.Valid)
		}
		if bt.Valid {
			feasibleSeen++
			if !Validate(tasks, bt.Priorities) {
				t.Fatalf("trial %d: invalid assignment returned", trial)
			}
		} else {
			infeasibleSeen++
			if bt.Priorities != nil {
				t.Fatalf("trial %d: infeasible but priorities returned", trial)
			}
		}
	}
	// The generator must exercise both outcomes for the test to mean
	// anything.
	if feasibleSeen == 0 || infeasibleSeen == 0 {
		t.Fatalf("degenerate sampling: %d feasible, %d infeasible", feasibleSeen, infeasibleSeen)
	}
}

// Memoization is a pure optimization: same verdict.
func TestBacktrackingOptionsPreserveVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 150; trial++ {
		tasks := randomTaskSet(rng, 3+rng.Intn(4))
		base := Backtracking(tasks)
		memo := BacktrackingOpts(tasks, Options{Memoize: true})
		if memo.Valid != base.Valid {
			t.Fatalf("trial %d: memoization changed verdict", trial)
		}
		if memo.Valid && !Validate(tasks, memo.Priorities) {
			t.Fatalf("trial %d: memoization returned invalid assignment", trial)
		}
	}
}

func TestAudsleyGreedySound(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	for trial := 0; trial < 300; trial++ {
		tasks := randomTaskSet(rng, 3+rng.Intn(4))
		ag := AudsleyGreedy(tasks)
		if ag.Valid {
			if !Validate(tasks, ag.Priorities) {
				t.Fatalf("trial %d: greedy returned invalid assignment", trial)
			}
		} else if ag.Priorities != nil {
			t.Fatalf("trial %d: failed greedy returned priorities", trial)
		}
	}
}

func TestExhaustiveRefusesLargeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exhaustive accepted n > 9")
		}
	}()
	Exhaustive(make([]rta.Task, 10))
}

func TestPrioritiesArePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	for trial := 0; trial < 100; trial++ {
		tasks := randomTaskSet(rng, 4+rng.Intn(4))
		for _, res := range []Result{Backtracking(tasks), UnsafeQuadratic(tasks)} {
			if res.Priorities == nil {
				continue
			}
			seen := make([]bool, len(tasks)+1)
			for _, p := range res.Priorities {
				if p < 1 || p > len(tasks) || seen[p] {
					t.Fatalf("trial %d: priorities %v not a permutation of 1..n", trial, res.Priorities)
				}
				seen[p] = true
			}
		}
	}
}

func TestStatsCountsGrow(t *testing.T) {
	tasks := easySet()
	bt := Backtracking(tasks)
	if bt.Stats.Evaluations < len(tasks) {
		t.Fatalf("implausibly few evaluations: %d", bt.Stats.Evaluations)
	}
	uq := UnsafeQuadratic(tasks)
	// Greedy max-slack evaluates each remaining task at each level:
	// n + (n−1) + ... + 1 evaluations.
	want := len(tasks) * (len(tasks) + 1) / 2
	if uq.Stats.Evaluations != want {
		t.Fatalf("UnsafeQuadratic evaluations = %d, want %d", uq.Stats.Evaluations, want)
	}
}

func TestMemoizationReducesEvaluations(t *testing.T) {
	// On an infeasible instance the full search revisits (task, set)
	// states; memoization must never evaluate more.
	rng := rand.New(rand.NewSource(126))
	for trial := 0; trial < 60; trial++ {
		tasks := randomTaskSet(rng, 5)
		plain := Backtracking(tasks)
		memo := BacktrackingOpts(tasks, Options{Memoize: true})
		if memo.Stats.Evaluations > plain.Stats.Evaluations {
			t.Fatalf("trial %d: memoized %d > plain %d evaluations", trial, memo.Stats.Evaluations, plain.Stats.Evaluations)
		}
	}
}

func BenchmarkBacktracking8(b *testing.B) {
	rng := rand.New(rand.NewSource(127))
	sets := make([][]rta.Task, 32)
	for i := range sets {
		sets[i] = randomTaskSet(rng, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Backtracking(sets[i%len(sets)])
	}
}

func BenchmarkUnsafeQuadratic8(b *testing.B) {
	rng := rand.New(rand.NewSource(128))
	sets := make([][]rta.Task, 32)
	for i := range sets {
		sets[i] = randomTaskSet(rng, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UnsafeQuadratic(sets[i%len(sets)])
	}
}
