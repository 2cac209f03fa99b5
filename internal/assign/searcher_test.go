package assign

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// TestSearcherReuseMatchesFresh pins the Searcher contract: a single
// searcher run over many different task sets (sizes and options varying)
// returns exactly what a fresh BacktrackingOpts call returns for each.
func TestSearcherReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Searcher
	opts := []Options{
		{},
		{Memoize: true},
		{Memoize: true, MaxEvaluations: 5000},
	}
	for trial := 0; trial < 200; trial++ {
		tasks := randomTaskSet(rng, 2+rng.Intn(7))
		opt := opts[trial%len(opts)]
		got := s.Backtracking(tasks, opt)
		want := BacktrackingOpts(tasks, opt)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: reused searcher diverged:\ngot  %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestSearcherResultDoesNotAliasScratch guards the copy-out: a result's
// Priorities must survive the searcher's next search untouched.
func TestSearcherResultDoesNotAliasScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Searcher
	var first Result
	var firstTasks []Result
	for i := 0; i < 20; i++ {
		tasks := randomTaskSet(rng, 4)
		res := s.Backtracking(tasks, Options{Memoize: true})
		if i == 0 {
			first = res
			first.Priorities = append([]int(nil), res.Priorities...)
		}
		firstTasks = append(firstTasks, res)
	}
	if got := firstTasks[0]; !reflect.DeepEqual(got.Priorities, first.Priorities) {
		t.Fatalf("first result mutated by later searches: %v vs %v", got.Priorities, first.Priorities)
	}
	if len(firstTasks) > 1 && firstTasks[0].Priorities != nil && firstTasks[1].Priorities != nil {
		a := unsafe.SliceData(firstTasks[0].Priorities)
		b := unsafe.SliceData(firstTasks[1].Priorities)
		if a == b {
			t.Fatal("two results share one backing array")
		}
	}
}

// BenchmarkSearcherReuse measures the steady-state allocation profile of
// repeated searches through one Searcher (the co-design inner loop).
func BenchmarkSearcherReuse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tasks := randomTaskSet(rng, 10)
	var s Searcher
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Backtracking(tasks, Options{Memoize: true})
	}
}
