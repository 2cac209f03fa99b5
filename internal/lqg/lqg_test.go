package lqg

import (
	"math"
	"testing"

	"ctrlsched/internal/eig"
	"ctrlsched/internal/lti"
	"ctrlsched/internal/mat"
	"ctrlsched/internal/plant"
)

func TestSampleCostScalarClosedForm(t *testing.T) {
	// Pure integrator ẋ = u (A=0, B=1) with Q1 = 1, Q2 = 0:
	// over [0,h): x(t) = x + u·t, so
	// ∫ x(t)² dt = x²h + x·u·h² + u²h³/3
	// ⇒ Q1d = h, Q12d = h²/2, Q2d = h³/3.
	a := mat.New(1, 1)
	b := mat.Diag(1)
	q1 := mat.Diag(1)
	q2 := mat.New(1, 1)
	h := 0.3
	q1d, q12d, q2d := SampleCost(a, b, q1, q2, h)
	if math.Abs(q1d.At(0, 0)-h) > 1e-12 {
		t.Errorf("Q1d = %v, want %v", q1d.At(0, 0), h)
	}
	if math.Abs(q12d.At(0, 0)-h*h/2) > 1e-12 {
		t.Errorf("Q12d = %v, want %v", q12d.At(0, 0), h*h/2)
	}
	if math.Abs(q2d.At(0, 0)-h*h*h/3) > 1e-12 {
		t.Errorf("Q2d = %v, want %v", q2d.At(0, 0), h*h*h/3)
	}
}

func TestSampleCostIncludesInputWeight(t *testing.T) {
	// With Q1 = 0 and Q2 = c: Q2d = c·h exactly (u constant over period).
	a := mat.New(2, 2)
	b := mat.FromRows([][]float64{{0}, {1}})
	q1 := mat.New(2, 2)
	q2 := mat.Diag(4)
	h := 0.17
	_, _, q2d := SampleCost(a, b, q1, q2, h)
	if math.Abs(q2d.At(0, 0)-4*h) > 1e-10 {
		t.Errorf("Q2d = %v, want %v", q2d.At(0, 0), 4*h)
	}
}

func TestSampleNoiseScalarClosedForm(t *testing.T) {
	// ẋ = a·x + w, intensity r: Rd = ∫ e^{2as} r ds = r(e^{2ah}−1)/(2a).
	av, r, h := -1.5, 2.0, 0.4
	a := mat.Diag(av)
	rd := SampleNoise(a, mat.Diag(r), h)
	want := r * (math.Exp(2*av*h) - 1) / (2 * av)
	if math.Abs(rd.At(0, 0)-want) > 1e-12 {
		t.Fatalf("Rd = %v, want %v", rd.At(0, 0), want)
	}
}

func TestSampleNoiseIntegrator(t *testing.T) {
	// A = 0: Rd = r·h.
	rd := SampleNoise(mat.New(1, 1), mat.Diag(3), 0.25)
	if math.Abs(rd.At(0, 0)-0.75) > 1e-12 {
		t.Fatalf("Rd = %v, want 0.75", rd.At(0, 0))
	}
}

func TestSynthesizeDCServo(t *testing.T) {
	p := plant.DCServo()
	d, err := Synthesize(p, 0.006)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost <= 0 || math.IsInf(d.Cost, 0) {
		t.Fatalf("cost = %v", d.Cost)
	}
	// Closed-loop plant-side matrix Φ−ΓL must be Schur stable.
	stable, err := eig.IsSchurStable(d.Phi.Sub(d.Gamma.Mul(d.L)), 0)
	if err != nil || !stable {
		t.Fatal("regulator loop not stable")
	}
	// Estimator loop Φ−KfC must be Schur stable.
	stable, err = eig.IsSchurStable(d.Phi.Sub(d.Kf.Mul(p.Sys.C)), 0)
	if err != nil || !stable {
		t.Fatal("estimator loop not stable")
	}
}

func TestControllerRealization(t *testing.T) {
	p := plant.DCServo()
	d, err := Synthesize(p, 0.006)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := d.Controller()
	if ctrl.Inputs() != 1 || ctrl.Outputs() != 1 {
		t.Fatal("controller not SISO")
	}
	if ctrl.Ts != 0.006 {
		t.Fatalf("controller Ts = %v", ctrl.Ts)
	}
	// The nominal sampled closed loop (no extra delay) must be stable:
	// series interconnection of plant and controller with unit feedback.
	pd, err := lti.C2D(p.Sys, d.H)
	if err != nil {
		t.Fatal(err)
	}
	// Closed loop state [x; x̂]:
	// x+ = Φx + Γu, u = −Lx̂; x̂+ = Acl x̂ + Kf y, y = Cx.
	n := pd.Order()
	acl := mat.New(2*n, 2*n)
	acl.SetSlice(0, 0, pd.A)
	acl.SetSlice(0, n, pd.B.Mul(d.L).Scale(-1))
	acl.SetSlice(n, 0, d.Kf.Mul(p.Sys.C))
	acl.SetSlice(n, n, ctrl.A)
	stable, err := eig.IsSchurStable(acl, 0)
	if err != nil || !stable {
		t.Fatal("nominal closed loop unstable")
	}
}

func TestCostPathologicalPeriodInfinite(t *testing.T) {
	// Oscillator sampled at h = π/ω: unreachable+unobservable marginal
	// mode ⇒ infinite cost. This is the Fig. 2 spike.
	om := 10.0
	p := plant.HarmonicOscillator(om)
	if c := Cost(p, math.Pi/om); !math.IsInf(c, 1) {
		t.Fatalf("pathological cost = %v, want +Inf", c)
	}
	if c := Cost(p, math.Pi/om*0.7); math.IsInf(c, 0) {
		t.Fatalf("non-pathological cost = %v, want finite", c)
	}
}

func TestCostGeneralTrendIncreasing(t *testing.T) {
	// The paper's Fig. 2 point: the cost trends upward with h even
	// though it is not monotone. Check trend via averages over two
	// period bands for the DC servo.
	p := plant.DCServo()
	lo, hi := 0.0, 0.0
	nLo, nHi := 0, 0
	for h := 0.002; h <= 0.010; h += 0.001 {
		if c := Cost(p, h); !math.IsInf(c, 0) {
			lo += c
			nLo++
		}
	}
	for h := 0.020; h <= 0.030; h += 0.001 {
		if c := Cost(p, h); !math.IsInf(c, 0) {
			hi += c
			nHi++
		}
	}
	if nLo == 0 || nHi == 0 {
		t.Fatal("no finite costs in one of the bands")
	}
	if hi/float64(nHi) <= lo/float64(nLo) {
		t.Fatalf("cost trend not increasing: short-period avg %v, long-period avg %v", lo/float64(nLo), hi/float64(nHi))
	}
}

func TestCostAllLibraryPlantsFinite(t *testing.T) {
	for _, p := range plant.Library() {
		h := (p.HMin + p.HMax) / 2
		c := Cost(p, h)
		if math.IsInf(c, 0) || math.IsNaN(c) || c <= 0 {
			t.Errorf("plant %s at h=%v: cost = %v", p.Name, h, c)
		}
	}
}

func TestSynthesizePanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("h=0 did not panic")
		}
	}()
	_, _ = Synthesize(plant.DCServo(), 0)
}

func BenchmarkSynthesizeDCServo(b *testing.B) {
	p := plant.DCServo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(p, 0.006); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSynthesizeColdDeterministic pins that two cold syntheses of one
// (plant, period) agree bit for bit.
func TestSynthesizeColdDeterministic(t *testing.T) {
	p := plant.InvertedPendulum()
	d1, err := Synthesize(p, 0.008)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Synthesize(p, 0.008)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Cost != d2.Cost || mat.MaxAbsDiff(d1.S, d2.S) != 0 || mat.MaxAbsDiff(d1.Pf, d2.Pf) != 0 {
		t.Fatal("cold synthesis not deterministic")
	}
}
