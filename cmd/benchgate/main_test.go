package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseKeepsEverySampleAndStripsSuffix(t *testing.T) {
	in := `goos: linux
goarch: amd64
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkFig2Point-4   	     226	   5318638 ns/op
BenchmarkFig2Point-4   	     240	   5100000 ns/op	 123 B/op	 4 allocs/op
BenchmarkAnalyzeBatch64 	       3	  11307622 ns/op	      5678 items/s
PASS
`
	got := map[string][]float64{"Fig2Point": {5200000}}
	if err := parse(strings.NewReader(in), got); err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{
		"Fig2Point":      {5200000, 5318638, 5100000},
		"AnalyzeBatch64": {11307622},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse = %v, want %v", got, want)
	}
}

func TestParseRejectsNothing(t *testing.T) {
	got := map[string][]float64{}
	if err := parse(strings.NewReader("no benchmarks here\n"), got); err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// paired returns ten pairs of samples around 1000 ns/op: the change runs
// at ratio× the parent in the first `slower` pairs and 5 % faster in the
// rest.
func paired(ratio float64, slower int) (parent, change []float64) {
	for i := 0; i < pairs; i++ {
		p := 1000 + 10*float64(i)
		c := 0.95 * p
		if i < slower {
			c = ratio * p
		}
		parent, change = append(parent, p), append(change, c)
	}
	return parent, change
}

func TestDecide(t *testing.T) {
	slow30p, slow30c := paired(1.30, 10)
	slow10p, slow10c := paired(1.10, 10)
	slow40p, slow40c := paired(1.40, 8)
	tests := []struct {
		name           string
		parent, change map[string][]float64
		fail           bool
		report         string
	}{
		{
			name:   "slower in 10 of 10 pairs at 1.30x fails",
			parent: map[string][]float64{"Fig2Point": slow30p},
			change: map[string][]float64{"Fig2Point": slow30c},
			fail:   true,
			report: "FAIL Fig2Point",
		},
		{
			name:   "slower in 10 of 10 pairs at 1.10x passes",
			parent: map[string][]float64{"Fig2Point": slow10p},
			change: map[string][]float64{"Fig2Point": slow10c},
			report: "ok   Fig2Point",
		},
		{
			name:   "slower in 8 of 10 pairs at 1.40x passes",
			parent: map[string][]float64{"Fig2Point": slow40p},
			change: map[string][]float64{"Fig2Point": slow40c},
			report: "slower in 8 of 10 pairs",
		},
		{
			name:   "gated in the parent but missing from the change fails",
			parent: map[string][]float64{"Fig2Point": slow10p, "CosimLoop": slow10p},
			change: map[string][]float64{"Fig2Point": slow10p},
			fail:   true,
			report: "FAIL CosimLoop",
		},
		{
			name:   "only in the change is new and not gated",
			parent: map[string][]float64{"Fig2Point": slow10p},
			change: map[string][]float64{"Fig2Point": slow10p, "AnalyzeHit": slow30c},
			report: "new  AnalyzeHit",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			lines, failed := decide(tc.parent, tc.change)
			report := strings.Join(lines, "\n")
			if failed != tc.fail {
				t.Errorf("failed = %v, want %v\n%s", failed, tc.fail, report)
			}
			if !strings.Contains(report, tc.report) {
				t.Errorf("report lacks %q:\n%s", tc.report, report)
			}
		})
	}
}
