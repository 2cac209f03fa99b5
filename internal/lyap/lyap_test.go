package lyap

import (
	"math/rand"
	"testing"

	"ctrlsched/internal/mat"
)

// randStableDiscrete returns a random matrix scaled to spectral radius
// safely below 1 (via norm bound: ‖A‖ < 1 ⇒ ρ(A) < 1).
func randStableDiscrete(rng *rand.Rand, n int) *mat.Matrix {
	a := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	return a.Scale(0.8 / (1e-9 + a.NormInf()))
}

// randPSD returns QᵀQ for a random Q: a PSD matrix.
func randPSD(rng *rand.Rand, n int) *mat.Matrix {
	q := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			q.Set(i, j, rng.NormFloat64())
		}
	}
	return q.T().Mul(q)
}

func dlyapResidual(a, q, x *mat.Matrix) float64 {
	return a.T().Mul(x).Mul(a).Sub(x).Add(q).MaxAbs()
}

func TestDLyapScalar(t *testing.T) {
	// a²x − x + q = 0 => x = q/(1−a²).
	a := mat.FromRows([][]float64{{0.5}})
	q := mat.FromRows([][]float64{{3}})
	x, err := DLyap(a, q)
	if err != nil {
		t.Fatal(err)
	}
	want := 3.0 / (1 - 0.25)
	if diff := x.At(0, 0) - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("x = %v, want %v", x.At(0, 0), want)
	}
}

func TestDLyapResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		a := randStableDiscrete(rng, n)
		q := randPSD(rng, n)
		x, err := DLyap(a, q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r := dlyapResidual(a, q, x); r > 1e-9*(1+x.MaxAbs()) {
			t.Fatalf("trial %d: residual %v", trial, r)
		}
		// Solution of a stable discrete Lyapunov equation with PSD Q is PSD:
		// check x's diagonal is nonnegative and x is symmetric.
		for i := 0; i < n; i++ {
			if x.At(i, i) < -1e-10 {
				t.Fatalf("trial %d: negative diagonal %v", trial, x.At(i, i))
			}
		}
	}
}

func TestDLyapSingularOperator(t *testing.T) {
	// A with eigenvalue 1 makes the operator singular.
	a := mat.Identity(2)
	if _, err := DLyap(a, mat.Identity(2)); err == nil {
		t.Fatal("expected ErrNoSolution for A = I")
	}
}

func TestCLyapScalar(t *testing.T) {
	// 2ax + q = 0 => x = −q/(2a); a = −1, q = 4 => x = 2.
	x, err := CLyap(mat.FromRows([][]float64{{-1}}), mat.FromRows([][]float64{{4}}))
	if err != nil {
		t.Fatal(err)
	}
	if d := x.At(0, 0) - 2; d > 1e-12 || d < -1e-12 {
		t.Fatalf("x = %v, want 2", x.At(0, 0))
	}
}

func TestCLyapResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		// Hurwitz-stable A: random minus a dominant diagonal.
		a := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)-float64(2*n))
		}
		q := randPSD(rng, n)
		x, err := CLyap(a, q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := a.T().Mul(x).Add(x.Mul(a)).Add(q).MaxAbs()
		if r > 1e-9*(1+x.MaxAbs()) {
			t.Fatalf("trial %d: residual %v", trial, r)
		}
	}
}

func TestCLyapSingularOperator(t *testing.T) {
	// λ = 0 (double integrator) makes λi+λj = 0.
	a := mat.FromRows([][]float64{{0, 1}, {0, 0}})
	if _, err := CLyap(a, mat.Identity(2)); err == nil {
		t.Fatal("expected ErrNoSolution for singular operator")
	}
}

func TestSmithMatchesVectorization(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(5)
		a := randStableDiscrete(rng, n)
		q := randPSD(rng, n)
		x1, err := DLyap(a, q)
		if err != nil {
			t.Fatal(err)
		}
		x2, err := DLyapSmith(a, q)
		if err != nil {
			t.Fatal(err)
		}
		if !x1.EqualApprox(x2, 1e-8*(1+x1.MaxAbs())) {
			t.Fatalf("trial %d: Smith disagrees with vectorization", trial)
		}
	}
}

func TestSmithDivergesOnUnstable(t *testing.T) {
	a := mat.Diag(1.2, 0.5)
	if _, err := DLyapSmith(a, mat.Identity(2)); err == nil {
		t.Fatal("Smith iteration should fail for unstable A")
	}
}
