package experiments

// Worker-count invariance: every campaign must produce byte-identical
// rows whether it runs on one worker or eight, because each benchmark,
// trial, and grid point draws from a deterministic per-item RNG (see
// package campaign). These doubles as the short-campaign -race suite:
// the CI race job runs this package with the race detector on.

import (
	"bytes"
	"reflect"
	"testing"

	"ctrlsched/internal/plant"
)

func TestTable1WorkerInvariance(t *testing.T) {
	run := func(workers int) []Table1Row {
		return Table1(Table1Config{
			Benchmarks:      120,
			Sizes:           []int{4, 6},
			Seed:            11,
			DiagnoseRescues: true,
		}, Exec{Workers: workers, Gen: Fixed(sharedGen)}).Rows
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Table1 rows differ across worker counts:\n1 worker: %+v\n8 workers: %+v", a, b)
	}
}

func TestCompareWorkerInvariance(t *testing.T) {
	run := func(workers int) []CompareRow {
		return Compare(CompareConfig{
			Benchmarks: 80,
			Sizes:      []int{4, 6},
			Seed:       13,
		}, Exec{Workers: workers, Gen: Fixed(sharedGen)}).Rows
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Compare rows differ across worker counts:\n1 worker: %+v\n8 workers: %+v", a, b)
	}
}

func TestAnomaliesWorkerInvariance(t *testing.T) {
	run := func(workers int) []AnomalyRow {
		return Anomalies(AnomalyConfig{
			Trials: 200,
			Sizes:  []int{4, 6},
			Seed:   17,
		}, Exec{Workers: workers, Gen: Fixed(sharedGen)}).Rows
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Anomalies rows differ across worker counts:\n1 worker: %+v\n8 workers: %+v", a, b)
	}
}

func TestFig5WorkerInvariance(t *testing.T) {
	// Wall-clock fields are inherently non-deterministic; zero them and
	// compare the suite-derived counts, which must be identical.
	run := func(workers int) []Fig5Row {
		res := Fig5(Fig5Config{
			Benchmarks: 40,
			Sizes:      []int{4, 8},
			Seed:       19,
		}, Exec{Workers: workers, Gen: Fixed(sharedGen)})
		res.StripTimings()
		return res.Rows
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Fig5 counts differ across worker counts:\n1 worker: %+v\n8 workers: %+v", a, b)
	}
}

func TestFig2WorkerInvariance(t *testing.T) {
	run := func(workers int) Fig2Result {
		return Fig2Sweep(Fig2Config{
			Plant:  plant.HarmonicOscillator(10),
			HMin:   0.05,
			HMax:   1.0,
			Points: 120,
		}, Exec{Workers: workers})
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Fig2 sweeps differ across worker counts")
	}
}

func TestSizeRowsIndependentOfSizesList(t *testing.T) {
	// A row's numbers are keyed by (Seed, n) alone: the n=6 row must be
	// the same whether the campaign also ran n=4 or not.
	shared := Exec{Gen: Fixed(sharedGen)}
	both := Table1(Table1Config{Benchmarks: 100, Sizes: []int{4, 6}, Seed: 23}, shared).Rows
	solo := Table1(Table1Config{Benchmarks: 100, Sizes: []int{6}, Seed: 23}, shared).Rows
	if !reflect.DeepEqual(both[1], solo[0]) {
		t.Fatalf("n=6 row depends on the rest of Sizes:\nwith n=4: %+v\nalone: %+v", both[1], solo[0])
	}
}

func TestEncodedBytesWorkerInvariance(t *testing.T) {
	// The service layer's acceptance bar: the canonical JSON encoding —
	// not just the rows — must be byte-identical across worker counts.
	encode := func(workers int) string {
		var buf bytes.Buffer
		res := Table1(Table1Config{
			Benchmarks: 80,
			Sizes:      []int{4},
			Seed:       29,
			GenSpec:    GenSpec{GridPoints: 4},
		}, Exec{Workers: workers})
		if err := EncodeJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := encode(1), encode(8); a != b {
		t.Fatalf("encoded bytes differ across worker counts:\n%s\n%s", a, b)
	}
}
