// Package lyap solves Lyapunov matrix equations:
//
//	discrete:   AᵀXA − X + Q = 0   (DLyap)
//	continuous: AᵀX + XA + Q = 0   (CLyap)
//
// For the small state dimensions occurring in control co-design (n ≤ ~10)
// the Kronecker vectorization approach — one dense LU solve of an n²×n²
// system — is simple, exact up to roundoff, and fast enough. A Smith
// iteration is provided as an independent cross-check and for callers that
// prefer an iterative method on Schur-stable A.
package lyap

import (
	"errors"

	"ctrlsched/internal/mat"
)

// ErrNoSolution is returned when the Lyapunov operator is singular (for
// DLyap: A has a pair of eigenvalues with λᵢ·λⱼ = 1, e.g. eigenvalues on
// the unit circle; for CLyap: λᵢ + λⱼ = 0).
var ErrNoSolution = errors.New("lyap: Lyapunov operator is singular; no unique solution")

// DLyap solves the discrete Lyapunov equation AᵀXA − X + Q = 0 by
// vectorization: (Aᵀ⊗Aᵀ − I)·vec(X) = −vec(Q).
func DLyap(a, q *mat.Matrix) (*mat.Matrix, error) {
	if !a.IsSquare() || !q.IsSquare() || a.Rows() != q.Rows() {
		panic("lyap: DLyap requires square A and Q of equal size")
	}
	n := a.Rows()
	at := a.T()
	op := at.Kron(at).Sub(mat.Identity(n * n))
	x, err := mat.SolveVec(op, q.Scale(-1).Vec())
	if err != nil {
		return nil, ErrNoSolution
	}
	return mat.Unvec(x, n, n).Symmetrize(), nil
}

// CLyap solves the continuous Lyapunov equation AᵀX + XA + Q = 0 by
// vectorization: (I⊗Aᵀ + Aᵀ⊗I)·vec(X) = −vec(Q).
func CLyap(a, q *mat.Matrix) (*mat.Matrix, error) {
	if !a.IsSquare() || !q.IsSquare() || a.Rows() != q.Rows() {
		panic("lyap: CLyap requires square A and Q of equal size")
	}
	n := a.Rows()
	at := a.T()
	op := mat.Identity(n).Kron(at).Add(at.Kron(mat.Identity(n)))
	x, err := mat.SolveVec(op, q.Scale(-1).Vec())
	if err != nil {
		return nil, ErrNoSolution
	}
	return mat.Unvec(x, n, n).Symmetrize(), nil
}

// DLyapSmith solves AᵀXA − X + Q = 0 by the squared Smith iteration
//
//	X ← X + AᵀXA, A ← A², starting from X = Q,
//
// which converges quadratically when A is Schur stable. It returns
// ErrNoSolution if the iterates fail to settle within the iteration budget
// (e.g. A not stable).
func DLyapSmith(a, q *mat.Matrix) (*mat.Matrix, error) {
	if !a.IsSquare() || !q.IsSquare() || a.Rows() != q.Rows() {
		panic("lyap: DLyapSmith requires square A and Q of equal size")
	}
	x := q.Clone()
	ak := a.Clone()
	for iter := 0; iter < 128; iter++ {
		term := ak.T().Mul(x).Mul(ak)
		xn := x.Add(term)
		if xn.HasNaN() {
			return nil, ErrNoSolution
		}
		if term.MaxAbs() <= 1e-14*(1+xn.MaxAbs()) {
			return xn.Symmetrize(), nil
		}
		x = xn
		ak = ak.Mul(ak)
	}
	return nil, ErrNoSolution
}
