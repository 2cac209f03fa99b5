package experiments

// Golden-result regression gate: each experiment runs a small
// fixed-seed campaign and its canonical (indented) JSON encoding is
// byte-compared against a committed file under testdata/golden/. A
// numerical regression in any of the paper's tables or figures —
// changed counts, shifted spikes, a perturbed percentage — fails these
// tests, and therefore `go test ./...` and the dedicated CI job.
//
// When a change is *intentional*, regenerate the files and commit the
// diff alongside the change that caused it:
//
//	go test ./internal/experiments -run TestGolden -update
//
// (CI pins one Go version for its golden job, so floating-point library
// changes between Go releases cannot flap the gate.)

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden files instead of comparing")

// goldenGen keeps the fixture campaigns fast; it is expressible through
// the HTTP API ({"gen":{"grid_points":4}}), so the committed bytes stay
// reproducible by a service request as well.
var goldenGen = GenSpec{GridPoints: 4}

func goldenCompare(t *testing.T, name string, r Result) {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeIndentedJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s — regenerate with `go test ./internal/experiments -run TestGolden -update`: %v", path, err)
	}
	if got := buf.Bytes(); !bytes.Equal(want, got) {
		t.Fatalf("result deviates from %s (line %d differs).\nIf the change is intentional, regenerate with `go test ./internal/experiments -run TestGolden -update` and commit the diff.\ngot:\n%s",
			path, firstDiffLine(want, got), got)
	}
}

// firstDiffLine reports the 1-based line where two byte slices diverge.
func firstDiffLine(a, b []byte) int {
	line := 1
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return line
		}
		if a[i] == '\n' {
			line++
		}
	}
	return line
}

func TestGoldenTable1(t *testing.T) {
	goldenCompare(t, "table1_n4_200.json", Table1(Table1Config{
		Benchmarks:      200,
		Sizes:           []int{4, 8},
		Seed:            1,
		GenSpec:         goldenGen,
		DiagnoseRescues: true,
	}, Exec{}))
}

func TestGoldenAnomalies(t *testing.T) {
	goldenCompare(t, "anomalies_n4_200.json", Anomalies(AnomalyConfig{
		Trials:  200,
		Sizes:   []int{4, 8},
		Seed:    1,
		GenSpec: goldenGen,
	}, Exec{}))
}

func TestGoldenCompare(t *testing.T) {
	goldenCompare(t, "compare_n4_100.json", Compare(CompareConfig{
		Benchmarks: 100,
		Sizes:      []int{4, 8},
		Seed:       1,
		GenSpec:    goldenGen,
	}, Exec{}))
}

func TestGoldenFig5(t *testing.T) {
	res := Fig5(Fig5Config{
		Benchmarks: 60,
		Sizes:      []int{4, 8},
		Seed:       1,
		GenSpec:    goldenGen,
	}, Exec{})
	// The seconds columns are wall-clock measurements; the golden file
	// locks down the deterministic counts.
	res.StripTimings()
	goldenCompare(t, "fig5_n4_60.json", &res)
}

func TestGoldenFig2(t *testing.T) {
	goldenCompare(t, "fig2_120.json", Fig2Run(Fig2RunConfig{Points: 120}, Exec{}))
}

func TestGoldenFig4(t *testing.T) {
	res, err := Fig4Run(Fig4Config{})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "fig4_default.json", res)
}

// TestGoldenFilesPresent guards against a silently-empty gate: every
// golden fixture this file references must exist in the repo.
func TestGoldenFilesPresent(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("testdata/golden missing: %v", err)
	}
	if len(entries) < 6 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("expected ≥ 6 golden files, found %d: %s", len(entries), fmt.Sprint(names))
	}
}
