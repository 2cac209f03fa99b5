package lqg

import (
	"errors"
	"math"
	"testing"

	"ctrlsched/internal/mat"
	"ctrlsched/internal/plant"
)

func matsEqual(a, b *mat.Matrix) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	ra, rb := a.RawData(), b.RawData()
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// TestSynthSnapshotCodecRoundTrip encodes a real synthesized design
// through the registered codec and checks the restored entry is
// functionally identical: same design fields bit-for-bit, same
// fingerprint, and the delayed-cost kernel produces the same value on
// the restored design as on the original.
func TestSynthSnapshotCodecRoundTrip(t *testing.T) {
	p := plant.DCServo()
	d, err := Synthesize(p, 0.012)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := encodeSynthEntry(&synthEntry{d: d})
	if !ok {
		t.Fatal("codec did not claim a *synthEntry")
	}
	v, err := decodeSynthEntry(payload)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*synthEntry)
	if got.err != nil {
		t.Fatal(got.err)
	}
	r := got.d
	if r.H != d.H || r.Cost != d.Cost || r.JNoise != d.JNoise || r.R2d != d.R2d {
		t.Fatalf("scalar fields drifted: %+v vs %+v", r, d)
	}
	if r.Fingerprint() != d.Fingerprint() {
		t.Fatal("fingerprint not preserved")
	}
	pairs := []struct{ a, b *mat.Matrix }{
		{r.Phi, d.Phi}, {r.Gamma, d.Gamma}, {r.Q1d, d.Q1d}, {r.Q12d, d.Q12d},
		{r.Q2d, d.Q2d}, {r.Rd, d.Rd}, {r.L, d.L}, {r.Kf, d.Kf},
		{r.S, d.S}, {r.Pf, d.Pf},
		{r.Plant.Sys.A, d.Plant.Sys.A}, {r.Plant.Q1, d.Plant.Q1},
	}
	for i, pr := range pairs {
		if !matsEqual(pr.a, pr.b) {
			t.Fatalf("matrix %d drifted", i)
		}
	}
	// The restored design is self-contained: derived kernels agree.
	want := DelayedCost(d, d.H/4)
	gotCost := DelayedCost(r, d.H/4)
	if math.Abs(want-gotCost) != 0 {
		t.Fatalf("DelayedCost on restored design %v, want %v", gotCost, want)
	}
}

// TestSynthSnapshotErrorRoundTrip pins the failure-entry encoding: the
// ErrUnstabilizable sentinel survives (errors.Is keeps working) and
// other messages round-trip as plain errors.
func TestSynthSnapshotErrorRoundTrip(t *testing.T) {
	payload, ok := encodeSynthEntry(&synthEntry{err: ErrUnstabilizable})
	if !ok {
		t.Fatal("codec did not claim the entry")
	}
	v, err := decodeSynthEntry(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(v.(*synthEntry).err, ErrUnstabilizable) {
		t.Fatalf("sentinel lost: %v", v.(*synthEntry).err)
	}

	payload, _ = encodeSynthEntry(&synthEntry{err: errors.New("period too long")})
	v, err = decodeSynthEntry(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*synthEntry).err; got == nil || got.Error() != "period too long" {
		t.Fatalf("message lost: %v", got)
	}
}

// TestSynthSnapshotRejectsTruncatedPayload checks the decoder fails
// loudly on a cut-off payload instead of fabricating a partial design.
func TestSynthSnapshotRejectsTruncatedPayload(t *testing.T) {
	p := plant.DCServo()
	d, err := Synthesize(p, 0.012)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := encodeSynthEntry(&synthEntry{d: d})
	for _, cut := range []int{1, len(payload) / 2, len(payload) - 3} {
		if _, err := decodeSynthEntry(payload[:cut]); err == nil {
			t.Fatalf("decoder accepted %d/%d bytes", cut, len(payload))
		}
	}
}
