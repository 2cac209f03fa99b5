package rta

import (
	"math/rand"
	"testing"
)

func randTasks(rng *rand.Rand, n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		period := 0.01 + rng.Float64()
		wcet := period * (0.05 + 0.3*rng.Float64())
		bcet := wcet * (0.3 + 0.7*rng.Float64())
		tasks[i] = Task{
			Name: "t", BCET: bcet, WCET: wcet, Period: period,
			ConA: 1 + rng.Float64(), ConB: period * rng.Float64() * 2,
		}
	}
	return tasks
}

func randPrio(rng *rand.Rand, n int) []int {
	prio := rng.Perm(n)
	for i := range prio {
		prio[i]++
	}
	return prio
}

// TestAnalyzeAllIntoMatchesAnalyzeAll pins the caller-owned result path
// against the allocating one: identical results with the result slice
// reused across task sets of varying size.
func TestAnalyzeAllIntoMatchesAnalyzeAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var out []Result
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		tasks := randTasks(rng, n)
		prio := randPrio(rng, n)
		want := AnalyzeAll(tasks, prio)
		out = AnalyzeAllInto(tasks, prio, out)
		if len(out) != len(want) {
			t.Fatalf("length mismatch %d vs %d", len(out), len(want))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("trial %d task %d: %+v into a reused slice, want %+v", trial, i, out[i], want[i])
			}
		}
	}
}

// TestAnalyzeAllIntoAllocationFree verifies the steady state: with a
// retained result slice, the analysis does not allocate.
func TestAnalyzeAllIntoAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tasks := randTasks(rng, 12)
	prio := randPrio(rng, 12)
	out := AnalyzeAllInto(tasks, prio, nil)
	allocs := testing.AllocsPerRun(100, func() {
		out = AnalyzeAllInto(tasks, prio, out)
	})
	if allocs != 0 {
		t.Fatalf("AnalyzeAllInto allocates %v times per run with a retained result slice", allocs)
	}
}

// TestAnalyzeMaskSelectsBySlice pins the mask kernel against the slice
// entry point: analyzing tasks[i] under a mask gives bit for bit the
// result of Analyze on the slice of the selected tasks in index order,
// wherever the analyzed task sits and whatever else the slice holds.
func TestAnalyzeMaskSelectsBySlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(MaxMaskTasks)
		tasks := randTasks(rng, n)
		i := rng.Intn(n)
		hp := rng.Uint64() & allMask(n) &^ (1 << uint(i))
		var sel []Task
		for j := range tasks {
			if hp&(1<<uint(j)) != 0 {
				sel = append(sel, tasks[j])
			}
		}
		if got, want := AnalyzeMask(tasks[i], tasks, hp), Analyze(tasks[i], sel); got != want {
			t.Fatalf("trial %d: mask %b gives %+v, slice gives %+v", trial, hp, got, want)
		}
	}
}

// TestMaskWidthLimit: a slice of MaxMaskTasks tasks is analyzed with every
// bit set, and one task more panics instead of silently dropping
// interferers.
func TestMaskWidthLimit(t *testing.T) {
	tasks := make([]Task, MaxMaskTasks+1)
	for i := range tasks {
		tasks[i] = Task{Name: "t", BCET: 1e-4, WCET: 1e-4, Period: 1, ConA: 1, ConB: 1}
	}
	victim := Task{Name: "v", BCET: 1, WCET: 1, Period: 100, ConA: 1, ConB: 100}
	if r := Analyze(victim, tasks[:MaxMaskTasks]); r.WCRT <= victim.WCET {
		t.Fatalf("64 interferers ignored: %+v", r)
	}
	for name, f := range map[string]func(){
		"Analyze":        func() { Analyze(victim, tasks) },
		"AnalyzeAllInto": func() { AnalyzeAllInto(tasks, make([]int, len(tasks)), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted %d tasks", name, len(tasks))
				}
			}()
			f()
		}()
	}
}
