// Package cosim co-simulates continuous plants with the discrete-event
// scheduler: the substitute for the TrueTime/Jitterbug MATLAB toolchain
// the paper's experimental culture relies on. Each control task samples
// its plant at its period, computes the LQG control law, and actuates
// after its (scheduler-determined) response time; the plant integrates
// continuously in between under process noise. The output is an empirical
// quadratic cost per plant, which lets us check the analytical stability
// verdicts (Eq. 5) against "ground truth" trajectories:
//
//   - a task set declared stable should co-simulate with bounded,
//     moderate empirical cost;
//   - a task set declared unstable (constraint violated) should show the
//     cost blowing up for the violated loop.
//
// Integration is fixed-step RK4 on the deterministic part with
// Euler–Maruyama noise injection, sub-stepped well below the fastest
// sampling period.
package cosim

import (
	"fmt"
	"math"

	"ctrlsched/internal/campaign"
	"ctrlsched/internal/lqg"
	"ctrlsched/internal/mat"
	"ctrlsched/internal/rta"
	"ctrlsched/internal/sim"
)

// Loop couples one control task with its plant and controller design. A
// nil Design marks an interference-only task: it participates in the
// discrete-event scheduling pass (consuming processor time and delaying
// the control loops below it) but integrates no plant, so its LoopResult
// stays zero. The co-design engine uses this for base tasks that carry a
// stability constraint without a co-simulated plant model.
type Loop struct {
	Task   rta.Task
	Design *lqg.Design
}

// DivergenceThreshold is the |x|∞ level beyond which a co-simulated
// trajectory is declared diverged: integration stops and the loop's
// MaxState records the blow-up. Stable loops in this repository's
// benchmark library stay orders of magnitude below it.
const DivergenceThreshold = 1e9

// Diverged reports whether the loop's trajectory blew up (the empirical
// counterpart of a violated stability constraint).
func (r LoopResult) Diverged() bool { return r.MaxState > DivergenceThreshold }

// Config controls a co-simulation run.
type Config struct {
	// Horizon is the simulated span in seconds.
	Horizon float64
	// Seed drives both the scheduler's execution-time draws and the
	// process noise.
	Seed int64
	// SubSteps is the number of integration sub-steps per fastest
	// period (default 40).
	SubSteps int
	// Exec is the scheduler's execution-time model (default
	// sim.ExecWorstCase, the zero value).
	Exec sim.ExecModel
	// DisableNoise turns process/measurement noise off (deterministic
	// runs for regression tests).
	DisableNoise bool
}

// LoopResult is the per-loop outcome.
type LoopResult struct {
	// Cost is the empirical average cost density
	// (1/T)·∫ xᵀQ1x + uᵀQ2u dt.
	Cost float64
	// MaxState is the largest |x|∞ along the trajectory — a blow-up
	// detector independent of the cost integral.
	MaxState float64
	// Samples is the number of control jobs that actuated.
	Samples int
}

// Result is the outcome of a co-simulation.
type Result struct {
	Loops []LoopResult
	// Sched carries the underlying scheduler statistics.
	Sched *sim.Result
}

// Run co-simulates the loops under the priority assignment prio.
func Run(loops []Loop, prio []int, cfg Config) (*Result, error) {
	if len(loops) == 0 {
		return nil, fmt.Errorf("cosim: no loops")
	}
	if cfg.SubSteps <= 0 {
		cfg.SubSteps = 40
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("cosim: horizon must be positive")
	}

	tasks := make([]rta.Task, len(loops))
	for i, lp := range loops {
		tasks[i] = lp.Task
	}

	// Scheduler pass: determines every job's release and finish.
	sres, err := sim.Run(tasks, prio, sim.Config{Horizon: cfg.Horizon, Exec: cfg.Exec, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	res := &Result{Sched: sres, Loops: make([]LoopResult, len(loops))}
	var ws integWS
	for i := range loops {
		if loops[i].Design == nil {
			continue // interference-only task: scheduled, not integrated
		}
		res.Loops[i] = runLoop(&loops[i], i, sres, cfg, &ws)
	}
	return res, nil
}

// integWS is the reusable integration scratch of one co-simulation run,
// in the repository's Workspace idiom: the RK4 stage vectors, the
// intermediate state, and the controller/cost buffers. Buffers regrow
// when the plant order changes; reuse changes no arithmetic, so results
// are bit-identical to the historical per-sub-step allocating code.
type integWS struct {
	k1, k2, k3, k4 []float64 // RK4 stage derivatives
	xs             []float64 // RK4 intermediate state
	phiX, xhatNew  []float64 // controller predictor update
	qx             []float64 // quadratic-form scratch
}

func (w *integWS) ensure(n int) {
	if len(w.k1) == n {
		return
	}
	w.k1, w.k2 = make([]float64, n), make([]float64, n)
	w.k3, w.k4 = make([]float64, n), make([]float64, n)
	w.xs = make([]float64, n)
	w.phiX, w.xhatNew = make([]float64, n), make([]float64, n)
	w.qx = make([]float64, n)
}

// runLoop integrates one plant under the actuation schedule of its task.
func runLoop(lp *Loop, taskIdx int, sres *sim.Result, cfg Config, ws *integWS) LoopResult {
	d := lp.Design
	sys := d.Plant.Sys
	n := sys.Order()
	ws.ensure(n)
	rng := campaign.NewRand(cfg.Seed*1000003 + int64(taskIdx))

	// Collect this task's jobs in release order.
	var jobs []sim.JobRecord
	for _, j := range sres.Jobs {
		if j.Task == taskIdx {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) == 0 {
		// A designed loop that never actuated inside the horizon has no
		// empirical evidence of stability: the zero LoopResult would read
		// as "cheap and stable" to callers summing costs (the co-design
		// engine's empirical pass). Report +Inf on both channels so the
		// loop counts as diverged/unusable instead.
		return LoopResult{Cost: math.Inf(1), MaxState: math.Inf(1)}
	}

	// Noise scaling: discrete approximation of the continuous intensity.
	dt := lp.Task.Period / float64(cfg.SubSteps)
	noiseChol := choleskyDiagonalish(d.Plant.R1)

	// State of the loop.
	x := make([]float64, n)    // plant state
	xhat := make([]float64, n) // controller estimate
	u := 0.0                   // currently applied control
	// Start slightly off the origin so deterministic runs are nontrivial.
	x[0] = 1

	costInt := 0.0
	maxState := 1.0
	now := 0.0
	q1, q2 := d.Plant.Q1, d.Plant.Q2

	// integrate advances the plant from `now` to `to` under constant u.
	integrate := func(to float64) {
		for now < to-1e-12 {
			step := dt
			if now+step > to {
				step = to - now
			}
			rk4Step(ws, sys.A, sys.B, x, u, step)
			if !cfg.DisableNoise {
				sq := math.Sqrt(step)
				for r := 0; r < n; r++ {
					if noiseChol[r] > 0 {
						x[r] += noiseChol[r] * sq * rng.NormFloat64()
					}
				}
			}
			// Cost accumulation (rectangle rule on sub-steps).
			cx := quad(ws, q1, x)
			costInt += (cx + q2.At(0, 0)*u*u) * step
			for _, v := range x {
				if a := math.Abs(v); a > maxState {
					maxState = a
				}
			}
			now += step
			if maxState > DivergenceThreshold {
				// Diverged: stop integrating, report blow-up.
				return
			}
		}
	}

	samples := 0
	for _, j := range jobs {
		if maxState > DivergenceThreshold {
			break
		}
		// The task samples y at its release and actuates at its finish.
		integrate(j.Release)
		y := dot(sys.C, x)
		if !cfg.DisableNoise {
			y += math.Sqrt(d.R2d) * rng.NormFloat64()
		}
		// Controller predictor update (uses the previous estimate).
		// u_next = −L·x̂;  x̂⁺ = Φx̂ + Γu_applied + Kf(y − Cx̂).
		uNext := -dotRow(d.L, xhat)
		innov := y - dot(sys.C, xhat)
		mat.MulVecInto(ws.phiX, d.Phi, xhat)
		for r := 0; r < n; r++ {
			ws.xhatNew[r] = ws.phiX[r] + d.Gamma.At(r, 0)*uNext + d.Kf.At(r, 0)*innov
		}
		copy(xhat, ws.xhatNew)

		// Actuate at the job's completion.
		integrate(j.Finish)
		u = uNext
		samples++
	}
	// Tail: integrate to the horizon.
	if maxState <= DivergenceThreshold {
		integrate(cfg.Horizon)
	}

	span := now
	if span <= 0 {
		span = 1
	}
	return LoopResult{Cost: costInt / span, MaxState: maxState, Samples: samples}
}

// rk4Step advances ẋ = Ax + Bu one step in place on the workspace's
// stage buffers. The accumulation order matches the historical
// allocating implementation exactly (MulVec row order, then the B·u
// add, then the axpy combination), so trajectories are bit-identical.
func rk4Step(w *integWS, a, b *mat.Matrix, x []float64, u, h float64) {
	n := len(x)
	deriv := func(dst, xs []float64) {
		mat.MulVecInto(dst, a, xs)
		for r := 0; r < n; r++ {
			dst[r] += b.At(r, 0) * u
		}
	}
	deriv(w.k1, x)
	axpyInto(w.xs, x, w.k1, h/2)
	deriv(w.k2, w.xs)
	axpyInto(w.xs, x, w.k2, h/2)
	deriv(w.k3, w.xs)
	axpyInto(w.xs, x, w.k3, h)
	deriv(w.k4, w.xs)
	for r := 0; r < n; r++ {
		x[r] += h / 6 * (w.k1[r] + 2*w.k2[r] + 2*w.k3[r] + w.k4[r])
	}
}

func axpyInto(out, x, d []float64, s float64) {
	for i := range x {
		out[i] = x[i] + s*d[i]
	}
}

// quad returns xᵀQx on the workspace scratch.
func quad(w *integWS, q *mat.Matrix, x []float64) float64 {
	mat.MulVecInto(w.qx, q, x)
	var s float64
	for i := range x {
		s += x[i] * w.qx[i]
	}
	return s
}

// dot returns (row 0 of c)·x.
func dot(c *mat.Matrix, x []float64) float64 {
	var s float64
	for j := 0; j < c.Cols(); j++ {
		s += c.At(0, j) * x[j]
	}
	return s
}

// dotRow returns (row 0 of l)·x for the 1×n gain matrix l.
func dotRow(l *mat.Matrix, x []float64) float64 {
	var s float64
	for j := 0; j < l.Cols(); j++ {
		s += l.At(0, j) * x[j]
	}
	return s
}

// choleskyDiagonalish extracts per-state noise standard deviations from
// the diagonal of R1 (the library's noise models are diagonal-dominant;
// off-diagonal structure is ignored for injection purposes).
func choleskyDiagonalish(r1 *mat.Matrix) []float64 {
	out := make([]float64, r1.Rows())
	for i := range out {
		v := r1.At(i, i)
		if v > 0 {
			out[i] = math.Sqrt(v)
		}
	}
	return out
}
