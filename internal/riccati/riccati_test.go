package riccati

import (
	"math"
	"math/rand"
	"testing"

	"ctrlsched/internal/eig"
	"ctrlsched/internal/lti"
	"ctrlsched/internal/mat"
)

func TestScalarClosedForm(t *testing.T) {
	// Scalar DARE: p = a²p − a²p²b²/(r+b²p) + q.
	// With a=1, b=1, q=1, r=1: p = p − p²/(1+p) + 1 ⇒ p² − p − 1 = 0
	// ⇒ p = golden ratio φ = (1+√5)/2.
	a := mat.FromRows([][]float64{{1}})
	b := mat.FromRows([][]float64{{1}})
	q := mat.FromRows([][]float64{{1}})
	r := mat.FromRows([][]float64{{1}})
	sol, err := Solve(a, b, q, r)
	if err != nil {
		t.Fatal(err)
	}
	phi := (1 + math.Sqrt(5)) / 2
	if math.Abs(sol.P.At(0, 0)-phi) > 1e-10 {
		t.Fatalf("P = %v, want φ = %v", sol.P.At(0, 0), phi)
	}
	// K = pa·b/(r+b²p) = φ/(1+φ) and closed loop a−bk must be stable.
	wantK := phi / (1 + phi)
	if math.Abs(sol.K.At(0, 0)-wantK) > 1e-10 {
		t.Fatalf("K = %v, want %v", sol.K.At(0, 0), wantK)
	}
	if acl := 1 - sol.K.At(0, 0); math.Abs(acl) >= 1 {
		t.Fatalf("closed loop %v not stable", acl)
	}
}

func TestResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(2)
		a := mat.New(n, n)
		b := mat.New(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			for j := 0; j < m; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		q := mat.Identity(n)
		r := mat.Identity(m)
		sol, err := Solve(a, b, q, r)
		if err != nil {
			// Random (A,B) is stabilizable almost surely, but roundoff
			// can produce near-degenerate pairs; skip rather than fail.
			continue
		}
		res := Residual(a, b, q, r, nil, sol.P)
		if res > 1e-7*(1+sol.P.MaxAbs()) {
			t.Fatalf("trial %d: DARE residual %v (‖P‖=%v)", trial, res, sol.P.MaxAbs())
		}
		// Stabilizing property.
		rad, err := eig.SpectralRadius(a.Sub(b.Mul(sol.K)))
		if err != nil {
			t.Fatal(err)
		}
		if rad >= 1 {
			t.Fatalf("trial %d: closed-loop radius %v", trial, rad)
		}
	}
}

func TestCrossTermReduction(t *testing.T) {
	// With S ≠ 0, verify the generalized residual.
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 20; trial++ {
		n := 2
		a := mat.FromRows([][]float64{{1.1, 0.3}, {-0.2, 0.9}})
		b := mat.FromRows([][]float64{{0.5}, {1}})
		q := mat.Identity(n).Scale(1 + rng.Float64())
		r := mat.FromRows([][]float64{{0.5 + rng.Float64()}})
		s := mat.FromRows([][]float64{{0.1 * rng.NormFloat64()}, {0.1 * rng.NormFloat64()}})
		sol, err := SolveCross(a, b, q, r, s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := Residual(a, b, q, r, s, sol.P)
		if res > 1e-8*(1+sol.P.MaxAbs()) {
			t.Fatalf("trial %d: cross-term residual %v", trial, res)
		}
	}
}

func TestUnstabilizableFails(t *testing.T) {
	// Unstable mode not reachable from the input: eigenvalue 2 with B
	// only driving the other state.
	a := mat.Diag(2, 0.5)
	b := mat.FromRows([][]float64{{0}, {1}})
	_, err := Solve(a, b, mat.Identity(2), mat.Identity(1))
	if err == nil {
		t.Fatal("unstabilizable pair accepted")
	}
}

func TestPathologicalSamplingDiverges(t *testing.T) {
	// Harmonic oscillator ẋ = [[0,1],[−ω²,0]]x + [0,1]ᵀu sampled at
	// h = π/ω loses reachability of the (marginally stable) oscillation
	// mode ⇒ no stabilizing DARE solution.
	om := 10.0
	s := lti.MustSS(
		mat.FromRows([][]float64{{0, 1}, {-om * om, 0}}),
		mat.FromRows([][]float64{{0}, {1}}),
		mat.FromRows([][]float64{{1, 0}}), nil, 0)

	bad, err := lti.C2D(s, math.Pi/om)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(bad.A, bad.B, mat.Identity(2), mat.Identity(1)); err == nil {
		t.Fatal("pathological period produced a 'stabilizing' solution")
	}

	// A nearby non-pathological period works fine.
	good, err := lti.C2D(s, math.Pi/om*0.8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(good.A, good.B, mat.Identity(2), mat.Identity(1)); err != nil {
		t.Fatalf("non-pathological period failed: %v", err)
	}
}

func TestStableOpenLoopCheapControl(t *testing.T) {
	// For stable A and enormous R, the optimal gain tends to zero and P
	// tends to the Lyapunov solution of AᵀPA − P + Q = 0.
	a := mat.FromRows([][]float64{{0.5, 0.1}, {0, 0.3}})
	b := mat.FromRows([][]float64{{1}, {1}})
	q := mat.Identity(2)
	r := mat.FromRows([][]float64{{1e9}})
	sol, err := Solve(a, b, q, r)
	if err != nil {
		t.Fatal(err)
	}
	if sol.K.MaxAbs() > 1e-4 {
		t.Fatalf("cheap-control gain %v not ≈ 0", sol.K.MaxAbs())
	}
}

func TestFixedPointAgreesWithSDA(t *testing.T) {
	a := mat.FromRows([][]float64{{0.9, 0.2}, {-0.1, 0.7}})
	b := mat.FromRows([][]float64{{1}, {0.5}})
	q := mat.Identity(2)
	r := mat.Identity(1)
	p1, err := sda(a, b, q, r)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := fixedPoint(a, b, q, r)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.EqualApprox(p2, 1e-8*(1+p1.MaxAbs())) {
		t.Fatal("SDA and fixed-point disagree")
	}
}

func BenchmarkSolveDARE4(b *testing.B) {
	rng := rand.New(rand.NewSource(93))
	n := 4
	a := mat.New(n, n)
	bb := mat.New(n, 1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64()*0.6)
		}
		bb.Set(i, 0, rng.NormFloat64())
	}
	q, r := mat.Identity(n), mat.Identity(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, bb, q, r); err != nil {
			b.Fatal(err)
		}
	}
}
