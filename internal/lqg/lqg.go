// Package lqg designs sampled-data Linear-Quadratic-Gaussian controllers
// and evaluates their stationary cost, following Åström & Wittenmark,
// Computer-Controlled Systems, ch. 11:
//
//  1. the continuous plant, quadratic cost and noise intensities are
//     discretized exactly over one period with Van Loan block-exponential
//     integrals;
//  2. the control and filter Riccati equations are solved for the optimal
//     state feedback and stationary Kalman predictor;
//  3. the stationary cost density (cost per unit time) is evaluated
//     exactly from the closed-loop stationary covariance (a discrete
//     Lyapunov equation), plus the controller-independent intersample
//     noise term.
//
// When the sampled pair loses stabilizability or detectability — Kalman's
// pathological sampling periods — no stabilizing design exists and the
// cost is +Inf. This non-monotone, spiky J(h) is the paper's Fig. 2.
package lqg

import (
	"errors"
	"math"

	"ctrlsched/internal/kmemo"
	"ctrlsched/internal/lti"
	"ctrlsched/internal/lyap"
	"ctrlsched/internal/mat"
	"ctrlsched/internal/plant"
	"ctrlsched/internal/riccati"
)

// ErrUnstabilizable is returned when no stabilizing LQG design exists at
// the requested period (pathological sampling, or a plant/period far
// outside the controllable regime).
var ErrUnstabilizable = errors.New("lqg: no stabilizing design at this sampling period")

// Design is a complete sampled-data LQG design for one plant at one
// sampling period.
type Design struct {
	Plant *plant.Plant
	H     float64 // sampling period (s)

	// Sampled plant: x(k+1) = Phi x(k) + Gamma u(k) + w(k).
	Phi, Gamma *mat.Matrix

	// Discretized cost [x;u]ᵀ [Q1d Q12d; Q12dᵀ Q2d] [x;u] per period.
	Q1d, Q12d, Q2d *mat.Matrix

	// Rd is the discrete process-noise covariance, R2d the discrete
	// measurement-noise covariance.
	Rd  *mat.Matrix
	R2d float64

	// L is the optimal state feedback (u = −L·x̂); Kf the stationary
	// Kalman predictor gain; S and Pf the control/filter Riccati
	// solutions.
	L, Kf  *mat.Matrix
	S, Pf  *mat.Matrix
	Cost   float64 // stationary cost density J (cost per second)
	JNoise float64 // controller-independent intersample noise cost per period

	// fp is the canonical fingerprint of (plant, period), the design's
	// identity in the process-wide kernel cache (see cache.go). Designs
	// built by hand rather than by Synthesize leave it zero, which the
	// cached kernels treat as "no cache identity", so distinct hand-built
	// designs never alias one cache entry.
	fp kmemo.Key
}

// Controller returns the observer-based controller as a discrete-time
// state-space system from plant output y to control u:
//
//	x̂(k+1) = (Φ − ΓL − Kf·C)·x̂(k) + Kf·y(k)
//	u(k)   = −L·x̂(k)
//
// It is strictly proper (one full period of computational delay structure
// is captured separately by the latency analysis in package jitter).
func (d *Design) Controller() *lti.SS {
	c := d.Plant.Sys.C
	acl := d.Phi.Sub(d.Gamma.Mul(d.L)).Sub(d.Kf.Mul(c))
	return lti.MustSS(acl, d.Kf.Clone(), d.L.Scale(-1), nil, d.H)
}

// Synthesize designs the LQG controller for plant p at period h and
// evaluates its stationary cost density. It returns ErrUnstabilizable when
// no stabilizing design exists (e.g. pathological sampling periods).
func Synthesize(p *plant.Plant, h float64) (*Design, error) {
	if h <= 0 {
		panic("lqg: period must be positive")
	}
	sys := p.Sys
	disc, err := lti.C2D(sys, h)
	if err != nil {
		return nil, err
	}
	phi, gamma := disc.A, disc.B

	q1d, q12d, q2d := SampleCost(sys.A, sys.B, p.Q1, p.Q2, h)
	rd := SampleNoise(sys.A, p.R1, h)
	r2d := p.R2 / h

	// Control Riccati with cross term.
	ctrl, err := riccati.SolveCross(phi, gamma, q1d, q2d, q12d)
	if err != nil {
		return nil, ErrUnstabilizable
	}
	// Filter Riccati by duality: Solve(Φᵀ, Cᵀ, Rd, R2d).
	c := sys.C
	r2dm := mat.Diag(r2d)
	filt, err := riccati.Solve(phi.T(), c.T(), rd, r2dm)
	if err != nil {
		return nil, ErrUnstabilizable
	}
	kf := filt.K.T() // Kf = Φ·Pf·Cᵀ(C·Pf·Cᵀ + R2d)⁻¹

	d := &Design{
		Plant: p, H: h,
		Phi: phi, Gamma: gamma,
		Q1d: q1d, Q12d: q12d, Q2d: q2d,
		Rd: rd, R2d: r2d,
		L: ctrl.K, Kf: kf, S: ctrl.P, Pf: filt.P,
		fp: designFingerprint(p, h),
	}
	d.JNoise = intersampleNoiseCost(sys.A, p.R1, p.Q1, h)
	cost, err := d.stationaryCost()
	if err != nil {
		return nil, ErrUnstabilizable
	}
	d.Cost = cost
	return d, nil
}

// Cost evaluates only the stationary cost density J(h) for plant p at
// period h, returning +Inf when no stabilizing design exists. This is the
// quantity plotted against the sampling period in the paper's Fig. 2.
func Cost(p *plant.Plant, h float64) float64 {
	d, err := Synthesize(p, h)
	if err != nil {
		return math.Inf(1)
	}
	return d.Cost
}

// stationaryCost computes the exact stationary cost density of the
// closed loop under the predictor-form controller:
//
//	ξ = [x; x̂],  u = −L·x̂
//	x(k+1)  = Φx − ΓLx̂ + w
//	x̂(k+1) = Kf·C·x + (Φ − ΓL − Kf·C)x̂ + Kf·v
//
// The stationary covariance Σ solves the discrete Lyapunov equation
// Σ = A_cl Σ A_clᵀ + W_cl, and the per-period cost is
// tr(Q_d · T Σ Tᵀ) + JNoise with z = [x; u] = T·ξ.
func (d *Design) stationaryCost() (float64, error) {
	n := d.Phi.Rows()
	m := d.Gamma.Cols()
	c := d.Plant.Sys.C

	acl := mat.New(2*n, 2*n)
	acl.SetSlice(0, 0, d.Phi)
	acl.SetSlice(0, n, d.Gamma.Mul(d.L).Scale(-1))
	acl.SetSlice(n, 0, d.Kf.Mul(c))
	acl.SetSlice(n, n, d.Phi.Sub(d.Gamma.Mul(d.L)).Sub(d.Kf.Mul(c)))

	wcl := mat.New(2*n, 2*n)
	wcl.SetSlice(0, 0, d.Rd)
	wcl.SetSlice(n, n, d.Kf.Mul(d.Kf.T()).Scale(d.R2d))

	// DLyap solves AᵀXA − X + Q = 0; stationary covariance needs
	// Σ = AΣAᵀ + W, i.e. the same equation with A → A_clᵀ.
	sigma, err := lyap.DLyap(acl.T(), wcl)
	if err != nil {
		return 0, err
	}

	// z = [x; u] = T·ξ with T = [[I 0]; [0 −L]].
	t := mat.New(n+m, 2*n)
	t.SetSlice(0, 0, mat.Identity(n))
	t.SetSlice(n, n, d.L.Scale(-1))

	qd := mat.New(n+m, n+m)
	qd.SetSlice(0, 0, d.Q1d)
	qd.SetSlice(0, n, d.Q12d)
	qd.SetSlice(n, 0, d.Q12d.T())
	qd.SetSlice(n, n, d.Q2d)

	perPeriod := qd.Mul(t.Mul(sigma).Mul(t.T())).Trace() + d.JNoise
	if math.IsNaN(perPeriod) || math.IsInf(perPeriod, 0) {
		return 0, ErrUnstabilizable
	}
	if perPeriod < 0 {
		// The exact cost is nonnegative; tolerate roundoff-sized
		// violations and reject anything larger as numerical failure.
		if perPeriod > -1e-6*(1+math.Abs(d.JNoise)) {
			perPeriod = 0
		} else {
			return 0, ErrUnstabilizable
		}
	}
	return perPeriod / d.H, nil
}

// SampleCost discretizes the continuous quadratic cost
// ∫₀ʰ [x;u]ᵀ diag(Q1,Q2) [x;u] dt under ZOH into the per-period discrete
// form [x;u]ᵀ [Q1d Q12d; Q12dᵀ Q2d] [x;u] using Van Loan's block
// exponential (Van Loan 1978; A&W eq. 11.6–11.9):
//
//	exp( [ −Fᵀ  Qc ] h ) = [ *  M12 ]      Qd = M22ᵀ · M12
//	     [  0    F ]       [ 0  M22 ]
//
// with F = [[A B];[0 0]] and Qc = diag(Q1, Q2).
func SampleCost(a, b, q1, q2 *mat.Matrix, h float64) (q1d, q12d, q2d *mat.Matrix) {
	n, m := a.Rows(), b.Cols()
	nm := n + m
	f := mat.New(nm, nm)
	f.SetSlice(0, 0, a)
	f.SetSlice(0, n, b)
	qc := mat.New(nm, nm)
	qc.SetSlice(0, 0, q1)
	qc.SetSlice(n, n, q2)

	blk := mat.New(2*nm, 2*nm)
	blk.SetSlice(0, 0, f.T().Scale(-h))
	blk.SetSlice(0, nm, qc.Scale(h))
	blk.SetSlice(nm, nm, f.Scale(h))
	e := mat.Expm(blk)
	m12 := e.Slice(0, nm, nm, 2*nm)
	m22 := e.Slice(nm, 2*nm, nm, 2*nm)
	qd := m22.T().Mul(m12)

	q1d = qd.Slice(0, n, 0, n).Symmetrize()
	q12d = qd.Slice(0, n, n, nm)
	q2d = qd.Slice(n, nm, n, nm).Symmetrize()
	return q1d, q12d, q2d
}

// SampleNoise discretizes a continuous process-noise intensity R1 into the
// covariance of the accumulated noise over one period,
// Rd = ∫₀ʰ e^{As} R1 e^{Aᵀs} ds, again by Van Loan:
//
//	exp( [ −A  R1 ] h ) = [ *  N12 ]     Rd = N22ᵀ · N12
//	     [  0  Aᵀ ]       [ 0  N22 ]
func SampleNoise(a, r1 *mat.Matrix, h float64) *mat.Matrix {
	n := a.Rows()
	blk := mat.New(2*n, 2*n)
	blk.SetSlice(0, 0, a.Scale(-h))
	blk.SetSlice(0, n, r1.Scale(h))
	blk.SetSlice(n, n, a.T().Scale(h))
	e := mat.Expm(blk)
	n12 := e.Slice(0, n, n, 2*n)
	n22 := e.Slice(n, 2*n, n, 2*n)
	return n22.T().Mul(n12).Symmetrize()
}

// intersampleNoiseCost returns the controller-independent part of the
// per-period cost produced by process noise accumulating between samples:
//
//	Jn(h) = ∫₀ʰ tr( Q1 · W(s) ) ds,   W(s) = ∫₀ˢ e^{Aτ} R1 e^{Aᵀτ} dτ,
//
// evaluated by stepping W(s) exactly on a fine grid (W satisfies the
// semigroup recurrence W(s+δ) = e^{Aδ} W(s) e^{Aᵀδ} + W(δ)) and applying
// the trapezoidal rule in s.
func intersampleNoiseCost(a, r1, q1 *mat.Matrix, h float64) float64 {
	const steps = 64
	delta := h / steps
	phiD := mat.Expm(a.Scale(delta))
	phiDT := phiD.T()
	wD := SampleNoise(a, r1, delta)

	// The stepper reuses two covariance buffers across all 64 steps and
	// evaluates tr(Q1·W) without forming the product.
	n := a.Rows()
	w := mat.New(n, n)
	t1 := mat.New(n, n)
	w2 := mat.New(n, n)
	sum := 0.0 // trapezoid: f(0)/2 + f(δ) + ... + f(h−δ) + f(h)/2, f(0)=0
	for k := 1; k <= steps; k++ {
		mat.MulInto(t1, phiD, w)
		mat.MulInto(w2, t1, phiDT)
		mat.AddInto(w2, w2, wD)
		w, w2 = w2, w
		f := mat.MulTrace(q1, w)
		if k == steps {
			sum += f / 2
		} else {
			sum += f
		}
	}
	return sum * delta
}
