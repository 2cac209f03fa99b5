package taskgen

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ctrlsched/internal/plant"
	"ctrlsched/internal/rta"
)

func TestUUniFastSumsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		u := 0.1 + rng.Float64()
		us := UUniFast(rng, n, u)
		if len(us) != n {
			t.Fatalf("got %d utilizations", len(us))
		}
		sum := 0.0
		for _, v := range us {
			if v < 0 {
				t.Fatalf("negative utilization %v", v)
			}
			sum += v
		}
		if math.Abs(sum-u) > 1e-9 {
			t.Fatalf("sum = %v, want %v", sum, u)
		}
	}
}

func TestUUniFastDistributionNotDegenerate(t *testing.T) {
	// Mean of the first component over many draws should be ≈ u/n
	// (UUniFast is uniform over the simplex, so each coordinate has mean
	// u/n).
	rng := rand.New(rand.NewSource(112))
	const trials = 5000
	n, u := 5, 1.0
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += UUniFast(rng, n, u)[0]
	}
	mean := sum / trials
	if math.Abs(mean-u/float64(n)) > 0.02 {
		t.Fatalf("mean of first coordinate %v, want ≈ %v", mean, u/float64(n))
	}
}

func TestUUniFastPanicsOnZeroTasks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 accepted")
		}
	}()
	UUniFast(rand.New(rand.NewSource(1)), 0, 0.5)
}

func TestTaskSetWellFormed(t *testing.T) {
	g := NewGenerator(Config{})
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(17)
		tasks := g.TaskSet(rng, n)
		if len(tasks) != n {
			t.Fatalf("got %d tasks, want %d", len(tasks), n)
		}
		for _, task := range tasks {
			if err := task.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if u := rta.TotalUtilization(tasks); u > 1.0 {
			t.Fatalf("trial %d: utilization %v > 1", trial, u)
		}
	}
}

func TestTaskSetDeterministicWithSeed(t *testing.T) {
	g := NewGenerator(Config{})
	a := g.TaskSet(rand.New(rand.NewSource(42)), 8)
	b := g.TaskSet(rand.New(rand.NewSource(42)), 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("task %d differs across identical seeds", i)
		}
	}
}

func TestCoefficientCacheReuse(t *testing.T) {
	g := NewGenerator(Config{GridPoints: 3})
	g.Warm()
	if got, want := len(g.cache.slots), len(g.cfg.Plants)*3; got != want {
		t.Fatalf("cache has %d slots, want one per grid point (%d)", got, want)
	}
	// Every drawn task takes its period and constraint from the warmed
	// slot of its plant: draws read the grid, they never extend it.
	rng := rand.New(rand.NewSource(114))
	for i := 0; i < 10; i++ {
		for _, task := range g.TaskSet(rng, 10) {
			pIdx := -1
			for k, p := range g.cfg.Plants {
				if strings.HasPrefix(task.Name, p.Name+"#") {
					pIdx = k
				}
			}
			found := false
			for gIdx := 0; gIdx < 3; gIdx++ {
				slot := &g.cache.slots[pIdx*3+gIdx]
				if pIdx >= 0 && slot.h == task.Period && slot.con.A == task.ConA && slot.con.B == task.ConB {
					found = true
				}
			}
			if !found {
				t.Fatalf("task %s (period %v) matches no warmed slot of its plant", task.Name, task.Period)
			}
		}
	}
}

// TestTaskSetAllocatesOnlyItsSlice pins the draw's allocations: with a
// warm coefficient cache, a task set costs the returned slice and
// nothing else — no utilization slice and no per-task name string.
func TestTaskSetAllocatesOnlyItsSlice(t *testing.T) {
	g := NewGenerator(Config{})
	g.Warm()
	rng := rand.New(rand.NewSource(116))
	for _, n := range []int{1, 8, 31} {
		if allocs := testing.AllocsPerRun(100, func() { g.TaskSet(rng, n) }); allocs != 1 {
			t.Errorf("TaskSet(%d) allocates %v times, want 1 (the returned slice)", n, allocs)
		}
	}
}

// TestTaskNamesUnchanged pins the name table against the names the
// generator has always given: the plant's name, "#", and the task's
// index in its set.
func TestTaskNamesUnchanged(t *testing.T) {
	g := NewGenerator(Config{})
	rng := rand.New(rand.NewSource(117))
	for trial := 0; trial < 20; trial++ {
		for i, task := range g.TaskSet(rng, 31) {
			ok := false
			for _, p := range g.cfg.Plants {
				ok = ok || task.Name == p.Name+"#"+strconv.Itoa(i)
			}
			if !ok {
				t.Fatalf("task %d named %q", i, task.Name)
			}
		}
	}
}

func TestWithDefaultsLeavesPlants(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Plants != nil {
		t.Fatal("WithDefaults built the plant library")
	}
	if c.UMin != 0.40 || c.UMax != 0.85 || c.BCETMin != 0.40 || c.BCETMax != 1.0 || c.GridPoints != 12 {
		t.Fatalf("scalar defaults %+v", c)
	}
	if g := NewGenerator(Config{}); len(g.cfg.Plants) != len(plant.Library()) {
		t.Fatalf("NewGenerator has %d plants, want the library's %d", len(g.cfg.Plants), len(plant.Library()))
	}
}

func TestConstraintsUsable(t *testing.T) {
	// Most generated tasks must have a usable stability margin: b > 0
	// and b at least as large as the task's own WCET (else the task is
	// infeasible even running alone at top priority).
	g := NewGenerator(Config{})
	rng := rand.New(rand.NewSource(115))
	total, usable := 0, 0
	for i := 0; i < 30; i++ {
		for _, task := range g.TaskSet(rng, 10) {
			total++
			if task.ConB > 0 && task.StabilitySatisfied(task.BCET, task.WCET-task.BCET) {
				usable++
			}
		}
	}
	if frac := float64(usable) / float64(total); frac < 0.80 {
		t.Fatalf("only %.1f%% of generated tasks are individually feasible", 100*frac)
	}
}
