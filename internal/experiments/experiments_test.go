package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ctrlsched/internal/plant"
	"ctrlsched/internal/taskgen"
)

// smallGen returns a shared low-resolution generator so tests reuse one
// jitter-margin cache.
var sharedGen = taskgen.NewGenerator(taskgen.Config{GridPoints: 4})

func TestFig2OscillatorHasSpikesAndTrend(t *testing.T) {
	res := Fig2(plant.HarmonicOscillator(10), 0.05, 1.0, 400)
	if len(res.Spikes) == 0 {
		t.Fatal("no pathological-period spikes found")
	}
	// Spikes must cluster near kπ/10 ≈ 0.314, 0.628, 0.942.
	for _, s := range res.Spikes {
		k := s / (math.Pi / 10)
		if math.Abs(k-math.Round(k)) > 0.25 {
			t.Fatalf("spike at h=%v not near a pathological period", s)
		}
	}
	if res.FiniteSamples < 60 {
		t.Fatalf("only %d finite samples", res.FiniteSamples)
	}
	if res.TrendRatio <= 1 {
		t.Fatalf("cost trend ratio %v, want > 1 (increasing trend)", res.TrendRatio)
	}
}

func TestFig2ServoNoSpikesButNonMonotone(t *testing.T) {
	res := Fig2(plant.DCServo(), 0.002, 0.030, 80)
	if len(res.Spikes) != 0 {
		t.Fatalf("DC servo produced spikes at %v", res.Spikes)
	}
	if res.TrendRatio <= 1 {
		t.Fatalf("trend ratio %v, want > 1", res.TrendRatio)
	}
}

func TestFig2Render(t *testing.T) {
	var buf bytes.Buffer
	res := Fig2(plant.DCServo(), 0.002, 0.02, 20)
	res.Render(&buf)
	res.WriteCSV(&buf)
	out := buf.String()
	if !strings.Contains(out, "Fig. 2") || !strings.Contains(out, "plant,h_seconds,cost") {
		t.Fatalf("render/CSV output malformed:\n%s", out)
	}
}

func TestFig4CurvesAndBounds(t *testing.T) {
	curves, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) < 2 {
		t.Fatalf("want ≥ 2 curves, got %d", len(curves))
	}
	for _, c := range curves {
		if c.A < 1 || c.B <= 0 {
			t.Fatalf("%s: bound a=%v b=%v", c.Label, c.A, c.B)
		}
		// Bound below curve.
		for i, l := range c.Latency {
			if line := (c.B - l) / c.A; line > 0 && line > c.JMax[i]+1e-12 {
				t.Fatalf("%s: bound above curve at L=%v", c.Label, l)
			}
		}
		var buf bytes.Buffer
		c.Render(&buf)
		c.WriteCSV(&buf)
		if !strings.Contains(buf.String(), "stability curve") {
			t.Fatal("render output malformed")
		}
	}
}

func TestTable1SmallCampaign(t *testing.T) {
	res := Table1(Table1Config{
		Benchmarks:      300,
		Sizes:           []int{4, 6},
		Seed:            7,
		DiagnoseRescues: true,
	}, Exec{Gen: Fixed(sharedGen)})
	rows := res.Rows
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if res.Meta.Kind != KindTable1 || res.Meta.Schema != SchemaVersion || res.Meta.Seed != 7 {
		t.Fatalf("bad meta: %+v", res.Meta)
	}
	if res.Meta.Items != 2*300 {
		t.Fatalf("items = %d, want 600", res.Meta.Items)
	}
	for _, r := range rows {
		if r.Benchmarks != 300 {
			t.Fatalf("benchmarks = %d", r.Benchmarks)
		}
		if r.Invalid < 0 || r.Invalid > r.Benchmarks {
			t.Fatalf("invalid = %d", r.Invalid)
		}
		if r.Rescued > r.Invalid {
			t.Fatalf("rescued %d > invalid %d", r.Rescued, r.Invalid)
		}
		wantPct := 100 * float64(r.Invalid) / float64(r.Benchmarks)
		if math.Abs(r.InvalidPct-wantPct) > 1e-9 {
			t.Fatalf("pct mismatch")
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	res.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatal("render malformed")
	}
}

func TestFig5RuntimesPopulated(t *testing.T) {
	res := Fig5(Fig5Config{Benchmarks: 60, Sizes: []int{4, 8}, Seed: 3}, Exec{Gen: Fixed(sharedGen)})
	rows := res.Rows
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.UnsafeSeconds <= 0 || r.BacktrackingSeconds <= 0 {
			t.Fatalf("non-positive runtime: %+v", r)
		}
		if r.UnsafeEvaluations <= 0 || r.BacktrackingEvaluations <= 0 {
			t.Fatalf("evaluation counts missing: %+v", r)
		}
	}
	// Quadratic evaluation structure: UQ does exactly Σ_{k≤n} k
	// evaluations per benchmark.
	want := int64(60 * (4 * 5 / 2))
	if rows[0].UnsafeEvaluations != want {
		t.Fatalf("UQ evals at n=4: %d, want %d", rows[0].UnsafeEvaluations, want)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	res.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "Fig. 5") {
		t.Fatal("render malformed")
	}
}

func TestAnomaliesExperiment(t *testing.T) {
	res := Anomalies(AnomalyConfig{Trials: 400, Sizes: []int{4, 6}, Seed: 5}, Exec{Gen: Fixed(sharedGen)})
	rows := res.Rows
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Trials == 0 {
			t.Fatal("no trials recorded")
		}
		if r.Destabilizing > r.JitterRaises {
			t.Fatal("destabilizing exceeds jitter raises")
		}
		// The paper's point: rare. Anything above 25% would signal a
		// broken generator or analysis.
		if r.RaisePct > 25 {
			t.Fatalf("anomaly rate %.1f%% implausibly high", r.RaisePct)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	res.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "Anomaly frequency") {
		t.Fatal("render malformed")
	}
}

func TestCompareExperiment(t *testing.T) {
	res := Compare(CompareConfig{Benchmarks: 150, Sizes: []int{4, 8}, Seed: 9}, Exec{Gen: Fixed(sharedGen)})
	rows := res.Rows
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// Backtracking is complete: it must dominate every heuristic.
		for name, v := range map[string]int{
			"RM":         r.RateMonotonicValid,
			"slack-mono": r.SlackMonotonicValid,
			"unsafe":     r.UnsafeValid,
		} {
			if v > r.BacktrackingValid {
				t.Fatalf("%s (%d) beats Backtracking (%d) at n=%d", name, v, r.BacktrackingValid, r.N)
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	res.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "valid-assignment rate") {
		t.Fatal("render malformed")
	}
}

func TestNonFiniteEncoding(t *testing.T) {
	// CSV and JSON must agree on the spelling of non-finite floats.
	var buf bytes.Buffer
	writeCSV(&buf, math.Inf(1), math.Inf(-1), math.NaN(), 1.5, Float(math.Inf(-1)))
	if got := strings.TrimSpace(buf.String()); got != "inf,-inf,nan,1.5,-inf" {
		t.Fatalf("CSV non-finite encoding = %q", got)
	}
	pt := Fig2Point{H: 0.1, Cost: math.Inf(1)}
	b, err := json.Marshal(pt)
	if err != nil {
		t.Fatalf("marshal infinite cost: %v", err)
	}
	if string(b) != `{"h":0.1,"cost":"inf"}` {
		t.Fatalf("point JSON = %s", b)
	}
	var back Fig2Point
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.H != 0.1 || !math.IsInf(back.Cost, 1) {
		t.Fatalf("round trip = %+v", back)
	}
	var f Float
	if err := json.Unmarshal([]byte(`"nan"`), &f); err != nil || !math.IsNaN(float64(f)) {
		t.Fatalf("nan round trip: %v %v", f, err)
	}
}

// TestFloatMarshalMatchesEncodingJSON pins Float's own formatter to the
// bytes encoding/json writes for a float64: seeded bit patterns cover
// every exponent range, and the edges sit at the switch between plain
// and exponent form.
func TestFloatMarshalMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, math.Nextafter(1e-6, 0),
		1e20, 1e21, math.Nextafter(1e21, 0), math.MaxFloat64, -math.MaxFloat64,
		-1e-7, 1.5e-9, 123456789, 0.1, 1.0 / 3,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
		// Values a result holds: a mantissa scaled across the cutoffs.
		vals = append(vals, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, v := range vals {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Float(v).MarshalJSON()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Float(%v) = %s, %v; encoding/json writes %s (bits %#x)", v, got, err, want, math.Float64bits(v))
		}
	}
}

func TestAsciiPlotEdgeCases(t *testing.T) {
	var buf bytes.Buffer
	asciiPlot(&buf, nil, nil, 10, 5, false, "empty")
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty plot not handled")
	}
	buf.Reset()
	asciiPlot(&buf, []float64{1, 2}, []float64{math.Inf(1), 3}, 10, 5, true, "inf")
	if !strings.Contains(buf.String(), "^") {
		t.Fatal("infinite value not marked")
	}
}
