// Package taskgen generates the random control-task benchmarks of the
// paper's Section V: task utilizations from the UUniFast algorithm (Bini &
// Buttazzo [25]), plants drawn from the benchmark library, sampling
// periods from per-plant grids, and per-task linear stability constraints
// (a_i, b_i) obtained from the jitter-margin analysis of the plant at the
// chosen period.
//
// Jitter-margin coefficients are expensive relative to response-time
// analysis, so they are computed lazily per (plant, grid period) and
// cached process-wide (internal/kmemo); a benchmark campaign of 10 000
// task sets touches each grid point once, and generators with
// overlapping grids share the underlying syntheses.
package taskgen

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"

	"ctrlsched/internal/jitter"
	"ctrlsched/internal/plant"
	"ctrlsched/internal/rta"
)

// UUniFast draws n utilizations that sum exactly to u, uniformly over the
// simplex (Bini & Buttazzo, "Measuring the performance of schedulability
// tests", Real-Time Systems 30, 2005).
func UUniFast(rng *rand.Rand, n int, u float64) []float64 {
	if n <= 0 {
		panic("taskgen: UUniFast needs n > 0")
	}
	out := make([]float64, n)
	uunifast(rng, out, u)
	return out
}

// uunifast is UUniFast drawing into out (len(out) > 0), so TaskSet can
// keep its utilizations on the stack.
func uunifast(rng *rand.Rand, out []float64, u float64) {
	n := len(out)
	sum := u
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(rng.Float64(), 1/float64(n-1-i))
		out[i] = sum - next
		sum = next
	}
	out[n-1] = sum
}

// Config parameterizes benchmark generation. The zero value is completed
// by NewGenerator to the campaign settings used for Table I / Fig. 5.
type Config struct {
	// UMin and UMax bound the total utilization, drawn uniformly
	// (defaults 0.40 and 0.85).
	UMin, UMax float64
	// BCETMin and BCETMax bound the ratio cᵇ/cʷ, drawn uniformly
	// (defaults 0.40 and 1.0) — wide execution-time variation is what
	// makes response-time jitter, and hence the anomalies, possible.
	BCETMin, BCETMax float64
	// GridPoints is the number of log-spaced periods per plant for the
	// coefficient cache (default 12).
	GridPoints int
	// Plants is the benchmark plant set (default plant.Library(), built
	// by NewGenerator; WithDefaults leaves it as given).
	Plants []*plant.Plant
}

// WithDefaults returns the configuration with every zero scalar field
// replaced by the campaign default. It is exported so callers that
// canonicalize configurations (the analysis service's cache keys) share
// one defaulting rule with the generator itself. It leaves Plants as
// given: only NewGenerator builds the plant library, and no canonical
// key reads it.
func (c Config) WithDefaults() Config {
	// Each field defaults independently, so a partially-specified range
	// (say UMin alone) keeps the given bound instead of being silently
	// replaced; an inconsistent result (min > max) is the caller's to
	// reject.
	if c.UMin == 0 {
		c.UMin = 0.40
	}
	if c.UMax == 0 {
		c.UMax = 0.85
	}
	if c.BCETMin == 0 {
		c.BCETMin = 0.40
	}
	if c.BCETMax == 0 {
		c.BCETMax = 1.0
	}
	if c.GridPoints == 0 {
		c.GridPoints = 12
	}
	return c
}

// Generator produces random control task sets. It is safe for concurrent
// use; the coefficient cache is shared.
type Generator struct {
	cfg   Config
	cache *coeffCache
	// names[pIdx*rta.MaxMaskTasks+i] names task i of a set when it is
	// drawn from plant pIdx: the plant's name, "#", and i.
	names []string
}

// NewGenerator builds a generator with the given configuration.
func NewGenerator(cfg Config) *Generator {
	c := cfg.WithDefaults()
	if c.Plants == nil {
		c.Plants = plant.Library()
	}
	names := make([]string, 0, len(c.Plants)*rta.MaxMaskTasks)
	for _, p := range c.Plants {
		for i := 0; i < rta.MaxMaskTasks; i++ {
			names = append(names, p.Name+"#"+strconv.Itoa(i))
		}
	}
	return &Generator{cfg: c, cache: newCoeffCache(c.Plants, c.GridPoints), names: names}
}

// TaskSet draws one benchmark with n control tasks using rng. Each task's
// (plant, period, BCET/WCET ratio) is redrawn up to a few times until the
// task is individually feasible — it satisfies its own stability
// constraint when running alone at top priority (L = cᵇ, J = cʷ − cᵇ).
// Without this rejection step a large fraction of benchmarks would be
// trivially infeasible regardless of priorities, which would drown the
// anomaly statistics of Table I in uninteresting failures; the paper's
// campaign is implicitly feasibility-friendly (its algorithms find valid
// assignments for ≥ 99.6 % of benchmarks). Tasks whose WCET would exceed
// their period are clamped to 95 % of the period. The returned tasks carry
// the stability coefficients (ConA, ConB) of their plant at their period.
// The returned slice is the draw's only allocation. n is at most
// rta.MaxMaskTasks, the width of the analysis kernels.
func (g *Generator) TaskSet(rng *rand.Rand, n int) []rta.Task {
	if n <= 0 || n > rta.MaxMaskTasks {
		panic("taskgen: task-set size outside [1, 64]")
	}
	u := g.cfg.UMin + rng.Float64()*(g.cfg.UMax-g.cfg.UMin)
	var ubuf [rta.MaxMaskTasks]float64
	utils := ubuf[:n]
	uunifast(rng, utils, u)
	tasks := make([]rta.Task, n)
	for i := 0; i < n; i++ {
		var (
			task rta.Task
			pIdx int
		)
		for attempt := 0; attempt < 12; attempt++ {
			pIdx = rng.Intn(len(g.cfg.Plants))
			gIdx := rng.Intn(g.cfg.GridPoints)
			h, con := g.cache.get(pIdx, gIdx)

			cw := utils[i] * h
			if cw > 0.95*h {
				cw = 0.95 * h
			}
			beta := g.cfg.BCETMin + rng.Float64()*(g.cfg.BCETMax-g.cfg.BCETMin)
			cb := beta * cw
			if cb <= 0 {
				cb = cw * 1e-3
			}
			task = rta.Task{
				BCET:   cb,
				WCET:   cw,
				Period: h,
				ConA:   con.A,
				ConB:   con.B,
			}
			if task.StabilitySatisfied(cb, cw-cb) {
				break // individually feasible
			}
		}
		task.Name = g.names[pIdx*rta.MaxMaskTasks+i]
		tasks[i] = task
	}
	return tasks
}

// coeffCache maps each (plant, grid index) to its (period, constraint)
// entry: one slot per grid point, in a slice built with the generator and
// indexed pIdx*points+gIdx, so a draw reaches its slot without a lock or
// a map lookup. Since the kernel results themselves moved into the
// process-wide cache (internal/kmemo, reached through
// jitter.ForPlantCached), this is a thin view: it stores only the
// grid-period derivation and the final retry outcome, while the expensive
// synthesis and margin analysis are shared with every other generator,
// request, and optimizer in the process. The per-slot sync.Once coalesces
// concurrent workers on one grid slot (and keeps the retry loop
// single-shot per generator).
type coeffCache struct {
	plants []*plant.Plant
	points int
	slots  []cacheSlot
}

type cacheSlot struct {
	once sync.Once
	h    float64
	con  jitter.Constraint
}

func newCoeffCache(plants []*plant.Plant, points int) *coeffCache {
	return &coeffCache{plants: plants, points: points, slots: make([]cacheSlot, len(plants)*points)}
}

// get returns the grid period and constraint for plant pIdx, grid slot
// gIdx, computing the jitter margin on first use. Grid periods are
// log-spaced over [HMin, HMax]. If the margin analysis fails at the exact
// grid period (e.g. a pathological period for oscillatory plants), the
// period is nudged downward until a design exists; as a last resort a
// degenerate constraint b = 0 (never satisfiable with positive latency) is
// cached, which simply makes that grid slot an always-infeasible task —
// the priority-assignment layer handles it like any other infeasibility.
func (c *coeffCache) get(pIdx, gIdx int) (float64, jitter.Constraint) {
	slot := &c.slots[pIdx*c.points+gIdx]
	slot.once.Do(func() {
		p := c.plants[pIdx]
		frac := 0.0
		if c.points > 1 {
			frac = float64(gIdx) / float64(c.points-1)
		}
		h := p.HMin * math.Pow(p.HMax/p.HMin, frac)

		slot.h, slot.con = h, jitter.Constraint{A: 1, B: 0}
		hTry := h
		for attempt := 0; attempt < 4; attempt++ {
			m, err := jitter.ForPlantCached(p, hTry)
			if err == nil {
				slot.h, slot.con = hTry, m.Constraint()
				break
			}
			hTry *= 0.93
		}
	})
	return slot.h, slot.con
}

// Warm precomputes every cache entry; call it before timing-sensitive
// campaigns (Fig. 5) so jitter-margin synthesis does not pollute the
// measured priority-assignment runtimes. Entries are independent, so the
// warm-up fans out over all CPUs.
func (g *Generator) Warm() {
	g.WarmWorkers(0)
}

// WarmWorkers is Warm with an explicit concurrency bound, so campaigns
// running with a restricted worker pool (-workers 1) do not saturate the
// machine during warm-up either; 0 or negative means all CPUs.
func (g *Generator) WarmWorkers(workers int) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for p := range g.cfg.Plants {
		for i := 0; i < g.cfg.GridPoints; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(p, i int) {
				defer func() { <-sem; wg.Done() }()
				g.cache.get(p, i)
			}(p, i)
		}
	}
	wg.Wait()
}
