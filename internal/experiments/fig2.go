package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"ctrlsched/internal/campaign"
	"ctrlsched/internal/lqg"
	"ctrlsched/internal/plant"
)

// Fig2Point is one sample of the cost-versus-period sweep.
type Fig2Point struct {
	H    float64 // sampling period (s)
	Cost float64 // stationary LQG cost density; +Inf at pathological periods
}

// fig2PointJSON is the serialized shape of Fig2Point: Cost can be +Inf
// at exactly pathological periods, which encoding/json rejects for plain
// float64, so it travels as a Float.
type fig2PointJSON struct {
	H    float64 `json:"h"`
	Cost Float   `json:"cost"`
}

// MarshalJSON encodes the point with a non-finite-safe cost.
func (p Fig2Point) MarshalJSON() ([]byte, error) {
	return json.Marshal(fig2PointJSON{H: p.H, Cost: Float(p.Cost)})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (p *Fig2Point) UnmarshalJSON(b []byte) error {
	var v fig2PointJSON
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	p.H, p.Cost = v.H, float64(v.Cost)
	return nil
}

// Fig2Result reproduces the paper's Fig. 2: the "general increasing trend
// of control cost with sampling period, despite non-monotonicity". The
// primary series uses a harmonic-oscillator plant, whose pathological
// sampling periods h = kπ/ω make the cost diverge (the spikes of the
// figure); a DC-servo series shows the same trend without spikes.
type Fig2Result struct {
	Plant  string      `json:"plant"`
	Points []Fig2Point `json:"points"`

	// Diagnostics extracted for EXPERIMENTS.md:
	Spikes        []float64 `json:"spikes"`       // periods where the cost is infinite/huge
	NonMonotone   int       `json:"non_monotone"` // adjacent finite pairs where cost decreases with larger h
	TrendRatio    float64   `json:"trend_ratio"`  // mean cost of the top period quartile / bottom quartile
	FiniteSamples int       `json:"finite_samples"`
}

// spikeFactor classifies a sample as a pathological-period spike when its
// cost exceeds this multiple of the sweep's median cost (or is infinite).
// Exactly pathological periods give +Inf; grid points nearby give finite
// but enormous costs — both are "spikes" in the sense of Fig. 2.
const spikeFactor = 50

// Fig2 sweeps the sampling period for the given plant over [hMin, hMax]
// with the given number of points, using all CPUs.
func Fig2(p *plant.Plant, hMin, hMax float64, points int) Fig2Result {
	return Fig2Sweep(Fig2Config{Plant: p, HMin: hMin, HMax: hMax, Points: points}, Exec{})
}

// Fig2Config parameterizes one plant's period sweep.
type Fig2Config struct {
	Plant      *plant.Plant
	HMin, HMax float64
	Points     int
}

// Fig2Sweep runs the cost-versus-period sweep: the base grid and the
// spike-refinement samples are each evaluated on the campaign worker
// pool (one LQG cost per item, no randomness involved), then classified
// sequentially exactly as before. Every grid point is an independent
// LQG design, so the results are worker-count invariant. Progress
// covers the base grid only.
func Fig2Sweep(cfg Fig2Config, x Exec) Fig2Result {
	p, hMin, hMax, points := cfg.Plant, cfg.HMin, cfg.HMax, cfg.Points
	res := Fig2Result{Plant: p.Name}
	if points <= 0 {
		return res
	}

	grid := make([]float64, points)
	grid[0] = hMin
	for i := 1; i < points; i++ {
		grid[i] = hMin + (hMax-hMin)*float64(i)/float64(points-1)
	}
	costs, _ := campaign.MapPlain(points, x.options(0, 0, points), func(i int) float64 {
		return lqg.CostCached(p, grid[i])
	})

	var firstQ, lastQ, finite []float64
	var prev float64 = math.NaN()
	for i, c := range costs {
		res.Points = append(res.Points, Fig2Point{H: grid[i], Cost: c})
		if !math.IsInf(c, 1) {
			res.FiniteSamples++
			finite = append(finite, c)
			if !math.IsNaN(prev) && c < prev {
				res.NonMonotone++
			}
			prev = c
			if i < points/4 {
				firstQ = append(firstQ, c)
			}
			if i >= points*3/4 {
				lastQ = append(lastQ, c)
			}
		}
	}
	// Pathological periods are narrow: a uniform grid can straddle a
	// spike and sample only its foothills. Refine locally around every
	// interior local maximum that already stands out, so the spike
	// summits enter the point set before classification.
	med := median(finite)
	step := (hMax - hMin) / float64(points-1)
	base := res.Points
	var refine []float64
	for i := 1; i < len(base)-1; i++ {
		c := base[i].Cost
		if math.IsInf(c, 1) {
			continue // already a definite spike
		}
		if c > base[i-1].Cost && c > base[i+1].Cost && med > 0 && c > 5*med {
			for k := 1; k <= 8; k++ {
				off := step * float64(k) / 9
				refine = append(refine, base[i].H-off, base[i].H+off)
			}
		}
	}
	x.Progress = nil // the refinement's sample count is data-dependent
	refCosts, _ := campaign.MapPlain(len(refine), x.options(0, 0, 0), func(i int) float64 {
		return lqg.CostCached(p, refine[i])
	})
	for i, h := range refine {
		res.Points = append(res.Points, Fig2Point{H: h, Cost: refCosts[i]})
	}
	sort.Slice(res.Points, func(a, b int) bool { return res.Points[a].H < res.Points[b].H })

	// Spike classification relative to the base sweep's median cost,
	// clustered so each pathological period is reported once (at its
	// worst sampled point).
	type cluster struct{ last, bestH, bestCost float64 }
	var clusters []cluster
	for _, pt := range res.Points {
		if !(math.IsInf(pt.Cost, 1) || (med > 0 && pt.Cost > spikeFactor*med)) {
			continue
		}
		if n := len(clusters); n > 0 && pt.H-clusters[n-1].last < 2*step {
			clusters[n-1].last = pt.H
			if pt.Cost > clusters[n-1].bestCost {
				clusters[n-1].bestH, clusters[n-1].bestCost = pt.H, pt.Cost
			}
			continue
		}
		clusters = append(clusters, cluster{last: pt.H, bestH: pt.H, bestCost: pt.Cost})
	}
	for _, c := range clusters {
		res.Spikes = append(res.Spikes, c.bestH)
	}
	if len(firstQ) > 0 && len(lastQ) > 0 {
		res.TrendRatio = trimmedMean(lastQ) / trimmedMean(firstQ)
	}
	return res
}

// median returns the middle value of xs (not averaged for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// trimmedMean drops the top decile before averaging, so near-pathological
// spikes do not dominate the trend statistic.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	keep := s[:len(s)-len(s)/10]
	return mean(keep)
}

// Fig2RunConfig parameterizes the canonical Fig. 2 run: a 10 rad/s
// oscillator over (0, 1] s (three pathological periods at ≈0.314, 0.628,
// 0.942 s) and the DC servo over its usable range.
type Fig2RunConfig struct {
	Points int `json:"points"`
}

// Normalized returns the request identity of this configuration (see
// Table1Config.Normalized).
func (c Fig2RunConfig) Normalized() Fig2RunConfig {
	if c.Points == 0 {
		c.Points = 400
	}
	return c
}

// Fig2Set is the typed outcome of the canonical Fig. 2 run: one sweep
// per plant.
type Fig2Set struct {
	Meta   Meta          `json:"meta"`
	Config Fig2RunConfig `json:"config"`
	Sweeps []Fig2Result  `json:"sweeps"`
}

// Fig2Run evaluates the canonical pair of sweeps used by the CLI, the
// HTTP service and the benchmarks. The sweep involves no randomness, so
// Meta.Seed is always zero; Meta.Items counts every evaluated sample
// including the data-dependent spike refinement.
func Fig2Run(cfg Fig2RunConfig, x Exec) Fig2Set {
	c := cfg.Normalized()
	// Progress runs across both sweeps: the servo's grid follows the
	// oscillator's.
	osc, servo := x, x
	osc.Progress = x.Progress.offset(0, 2*c.Points)
	servo.Progress = x.Progress.offset(c.Points, 2*c.Points)
	sweeps := []Fig2Result{
		Fig2Sweep(Fig2Config{Plant: plant.HarmonicOscillator(10), HMin: 0.01, HMax: 1.0, Points: c.Points}, osc),
		Fig2Sweep(Fig2Config{Plant: plant.DCServo(), HMin: 0.002, HMax: 0.030, Points: c.Points}, servo),
	}
	items := 0
	for _, s := range sweeps {
		items += len(s.Points)
	}
	return Fig2Set{
		Meta:   Meta{Kind: KindFig2, Schema: SchemaVersion, Items: items},
		Config: c,
		Sweeps: sweeps,
	}
}

// Kind identifies the experiment that produced this result.
func (r Fig2Set) Kind() string { return KindFig2 }

// Render prints the ASCII version of every sweep.
func (r Fig2Set) Render(w io.Writer) {
	for _, s := range r.Sweeps {
		s.Render(w)
	}
}

// WriteCSV emits one header and the rows of every sweep.
func (r Fig2Set) WriteCSV(w io.Writer) {
	writeCSV(w, "plant", "h_seconds", "cost")
	for _, s := range r.Sweeps {
		for _, pt := range s.Points {
			writeCSV(w, s.Plant, pt.H, pt.Cost)
		}
	}
}

// WriteCSV emits h,cost rows for a single sweep.
func (r Fig2Result) WriteCSV(w io.Writer) {
	writeCSV(w, "plant", "h_seconds", "cost")
	for _, pt := range r.Points {
		writeCSV(w, r.Plant, pt.H, pt.Cost)
	}
}

// Render prints the ASCII version of the figure plus the diagnostics.
func (r Fig2Result) Render(w io.Writer) {
	xs := make([]float64, len(r.Points))
	ys := make([]float64, len(r.Points))
	for i, pt := range r.Points {
		xs[i] = pt.H
		ys[i] = pt.Cost
	}
	asciiPlot(w, xs, ys, 72, 16, true,
		fmt.Sprintf("Fig. 2 — LQG cost vs sampling period (%s); '^' marks cost → ∞", r.Plant))
	fmt.Fprintf(w, "   spikes at h ≈ %v\n", r.Spikes)
	fmt.Fprintf(w, "   non-monotone steps: %d of %d finite samples; top/bottom quartile cost ratio: %.2f\n\n",
		r.NonMonotone, r.FiniteSamples, r.TrendRatio)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
