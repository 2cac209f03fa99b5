// Package riccati solves the discrete-time algebraic Riccati equation
// (DARE)
//
//	P = AᵀPA − (AᵀPB + S)(R + BᵀPB)⁻¹(BᵀPA + Sᵀ) + Q
//
// with optional cross-weighting S, using the structure-preserving doubling
// algorithm (SDA) with a fixed-point fallback. The stabilizing gain
//
//	K = (R + BᵀPB)⁻¹(BᵀPA + Sᵀ)
//
// is returned alongside P, so that A − B·K is Schur stable whenever a
// stabilizing solution exists.
//
// Divergence matters as much as convergence here: at Kalman's pathological
// sampling periods the sampled plant loses stabilizability or
// detectability, no stabilizing solution exists, and the LQG cost is
// infinite — which is exactly the Fig. 2 phenomenon of the reproduced
// paper. Solve reports these cases as ErrNoStabilizingSolution rather than
// returning garbage.
package riccati

import (
	"errors"

	"ctrlsched/internal/eig"
	"ctrlsched/internal/mat"
)

// ErrNoStabilizingSolution is returned when no stabilizing DARE solution
// can be computed (iteration divergence, singular pencils, or a closed
// loop that fails the Schur-stability post-check).
var ErrNoStabilizingSolution = errors.New("riccati: no stabilizing DARE solution")

// stabilityMargin is the post-check margin: the closed loop must satisfy
// ρ(A−BK) < 1 − stabilityMargin. Keeping it tiny but nonzero rejects the
// marginally-(un)stabilizable cases at pathological sampling periods.
const stabilityMargin = 1e-9

// Solution holds a stabilizing DARE solution.
type Solution struct {
	P *mat.Matrix // stabilizing solution, symmetric PSD
	K *mat.Matrix // optimal gain, u = −K·x
}

// Solve computes the stabilizing solution of the DARE for the weights
// (Q, R) with zero cross term. See SolveCross for the general form.
func Solve(a, b, q, r *mat.Matrix) (*Solution, error) {
	return solveCross(a, b, q, r, nil)
}

// SolveCross computes the stabilizing DARE solution with cross-weighting
// s (n×m; nil means zero). The cross term is eliminated by the standard
// substitution Ā = A − B·R⁻¹·Sᵀ, Q̄ = Q − S·R⁻¹·Sᵀ, after which the
// zero-cross DARE is solved and the gain is reassembled.
func SolveCross(a, b, q, r, s *mat.Matrix) (*Solution, error) {
	return solveCross(a, b, q, r, s)
}

func solveCross(a, b, q, r, s *mat.Matrix) (*Solution, error) {
	n, m := a.Rows(), b.Cols()
	if !a.IsSquare() || b.Rows() != n || !q.IsSquare() || q.Rows() != n || !r.IsSquare() || r.Rows() != m {
		panic("riccati: dimension mismatch")
	}
	abar, qbar := a, q
	var rinvST *mat.Matrix
	if s != nil {
		if s.Rows() != n || s.Cols() != m {
			panic("riccati: cross term must be n×m")
		}
		var err error
		rinvST, err = mat.Solve(r, s.T()) // R⁻¹Sᵀ
		if err != nil {
			return nil, ErrNoStabilizingSolution
		}
		abar = a.Sub(b.Mul(rinvST))
		qbar = q.Sub(s.Mul(rinvST)).Symmetrize()
	}

	p, err := sda(abar, b, qbar, r)
	if err != nil {
		p, err = fixedPoint(abar, b, qbar, r)
		if err != nil {
			return nil, err
		}
	}
	p = p.Symmetrize()

	// Gain for the original (cross-term) problem:
	// K = (R + BᵀPB)⁻¹(BᵀPA + Sᵀ).
	bt := b.T()
	gram := r.Add(bt.Mul(p).Mul(b))
	rhs := bt.Mul(p).Mul(a)
	if s != nil {
		rhs = rhs.Add(s.T())
	}
	k, err := mat.Solve(gram, rhs)
	if err != nil {
		return nil, ErrNoStabilizingSolution
	}

	// Post-check: the closed loop must be strictly Schur stable and P
	// must be finite and (numerically) PSD on its diagonal.
	acl := a.Sub(b.Mul(k))
	stable, err := eig.IsSchurStable(acl, stabilityMargin)
	if err != nil || !stable || p.HasNaN() {
		return nil, ErrNoStabilizingSolution
	}
	for i := 0; i < n; i++ {
		if p.At(i, i) < -1e-8*(1+p.MaxAbs()) {
			return nil, ErrNoStabilizingSolution
		}
	}
	return &Solution{P: p, K: k}, nil
}

// sda runs the structure-preserving doubling algorithm on the zero-cross
// DARE. Writing G = B·R⁻¹·Bᵀ and H = Q, the iteration
//
//	W   = I + G_k·H_k
//	A₁  = A_k·W⁻¹·A_k
//	G₁  = G_k + A_k·W⁻¹·G_k·A_kᵀ
//	H₁  = H_k + A_kᵀ·H_k·W⁻¹·A_k
//
// converges quadratically with H_k → P when a stabilizing solution exists.
func sda(a, b, q, r *mat.Matrix) (*mat.Matrix, error) {
	n := a.Rows()
	rinvBT, err := mat.Solve(r, b.T())
	if err != nil {
		return nil, ErrNoStabilizingSolution
	}
	g := b.Mul(rinvBT)
	h := q.Clone()
	ak := a.Clone()
	// All per-iteration scratch — including the pivoted factorization of
	// W — is allocated once and ping-ponged with the iterates, so the
	// (up to 80-step) doubling loop itself is allocation-free.
	var (
		eye   = mat.Identity(n)
		w     = mat.New(n, n)
		winvA = mat.New(n, n)
		winvG = mat.New(n, n)
		akT   = mat.New(n, n)
		t1    = mat.New(n, n)
		t2    = mat.New(n, n)
		a1    = mat.New(n, n)
		g1    = mat.New(n, n)
		h1    = mat.New(n, n)
		wf    *mat.LU
	)
	for iter := 0; iter < 80; iter++ {
		mat.MulInto(t1, g, h)
		mat.AddInto(w, eye, t1) // W = I + G·H
		wf, err = mat.FactorizeInto(wf, w)
		if err != nil {
			return nil, ErrNoStabilizingSolution
		}
		wf.SolveInto(winvA, ak) // W⁻¹A
		wf.SolveInto(winvG, g)  // W⁻¹G
		mat.MulInto(a1, ak, winvA)
		mat.TransposeInto(akT, ak)
		mat.MulInto(t1, ak, winvG)
		mat.MulInto(t2, t1, akT)
		mat.AddInto(g1, g, t2) // G₁ = G + A·W⁻¹G·Aᵀ
		mat.MulInto(t1, akT, h)
		mat.MulInto(t2, t1, winvA)
		mat.AddInto(t1, h, t2)
		mat.SymmetrizeInto(h1, t1) // H₁ = sym(H + Aᵀ·H·W⁻¹A)
		if a1.HasNaN() || g1.HasNaN() || h1.HasNaN() {
			return nil, ErrNoStabilizingSolution
		}
		if delta := mat.MaxAbsDiff(h1, h); delta <= 1e-13*(1+h1.MaxAbs()) {
			return h1, nil
		}
		// Monotone blow-up of H signals a non-existent stabilizing
		// solution (e.g. unstabilizable pair at a pathological period).
		if h1.MaxAbs() > 1e14 {
			return nil, ErrNoStabilizingSolution
		}
		ak, a1 = a1, ak
		g, g1 = g1, g
		h, h1 = h1, h
	}
	return nil, ErrNoStabilizingSolution
}

// fixedPoint iterates P ← AᵀPA − AᵀPB(R+BᵀPB)⁻¹BᵀPA + Q from P = Q. It is
// slower than SDA (linear rate) but has weaker intermediate invertibility
// requirements; used as a fallback.
func fixedPoint(a, b, q, r *mat.Matrix) (*mat.Matrix, error) {
	const maxIter = 20000
	p := q.Clone()
	bt := b.T()
	at := a.T()
	n, m := a.Rows(), b.Cols()
	// Per-iteration scratch, allocated once for the whole (linear-rate,
	// potentially 20000-step) iteration.
	var (
		btp  = mat.New(m, n)
		btpb = mat.New(m, m)
		gram = mat.New(m, m)
		rhs  = mat.New(m, n)
		k    = mat.New(m, n)
		atp  = mat.New(n, n)
		atpa = mat.New(n, n)
		atpb = mat.New(n, m)
		t1   = mat.New(n, n)
		pn   = mat.New(n, n)
		gf   *mat.LU
		err  error
	)
	for iter := 0; iter < maxIter; iter++ {
		mat.MulInto(btp, bt, p)
		mat.MulInto(btpb, btp, b)
		mat.AddInto(gram, r, btpb) // R + BᵀPB
		gf, err = mat.FactorizeInto(gf, gram)
		if err != nil {
			return nil, ErrNoStabilizingSolution
		}
		mat.MulInto(rhs, btp, a)
		gf.SolveInto(k, rhs) // K = (R+BᵀPB)⁻¹ BᵀPA
		mat.MulInto(atp, at, p)
		mat.MulInto(atpa, atp, a)
		mat.MulInto(atpb, atp, b)
		mat.MulInto(t1, atpb, k)
		mat.SubInto(t1, atpa, t1)
		mat.AddInto(t1, t1, q)
		mat.SymmetrizeInto(pn, t1) // sym(AᵀPA − AᵀPB·K + Q)
		if pn.HasNaN() || pn.MaxAbs() > 1e14 {
			return nil, ErrNoStabilizingSolution
		}
		if mat.MaxAbsDiff(pn, p) <= 1e-12*(1+pn.MaxAbs()) {
			return pn, nil
		}
		p, pn = pn, p
	}
	return nil, ErrNoStabilizingSolution
}

// Residual returns the max-abs DARE residual of a candidate solution; used
// by tests and diagnostics.
func Residual(a, b, q, r, s, p *mat.Matrix) float64 {
	bt := b.T()
	gram := r.Add(bt.Mul(p).Mul(b))
	rhs := bt.Mul(p).Mul(a)
	if s != nil {
		rhs = rhs.Add(s.T())
	}
	k, err := mat.Solve(gram, rhs)
	if err != nil {
		return 1e300
	}
	lhs := a.T().Mul(p).Mul(a).Add(q)
	cross := a.T().Mul(p).Mul(b)
	if s != nil {
		cross = cross.Add(s)
	}
	return lhs.Sub(cross.Mul(k)).Sub(p).MaxAbs()
}
