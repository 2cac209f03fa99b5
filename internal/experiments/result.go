package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"ctrlsched/internal/campaign"
	"ctrlsched/internal/taskgen"
)

// SchemaVersion is bumped whenever the JSON shape of any result type
// changes incompatibly, or a request's result bytes change (say, a
// budgeted search that now decides what it used to abort). It is part
// of every result's metadata and of the service layer's cache keys, so
// stale cached bytes can never be served across such a change.
const SchemaVersion = 1

// Experiment kinds, as used in result metadata, service cache keys, and
// the HTTP API paths (POST /v1/experiments/{kind}).
const (
	KindTable1    = "table1"
	KindFig2      = "fig2"
	KindFig4      = "fig4"
	KindFig5      = "fig5"
	KindAnomalies = "anomalies"
	KindCompare   = "compare"
	// KindCodesign is the co-design synthesis endpoint's kind; it is not
	// an experiment campaign and is routed as POST /v1/codesign rather
	// than under /v1/experiments/, but its result shares this metadata
	// and schema-version scheme.
	KindCodesign = "codesign"
)

// Meta is the provenance header shared by every experiment result: which
// experiment produced it, under which schema, from which seed, and how
// many campaign items were executed. The configuration itself is carried
// as a typed sibling field on each result struct. Wall-clock fields are
// deliberately absent so identical requests yield identical bytes.
type Meta struct {
	Kind   string `json:"kind"`
	Schema int    `json:"schema"`
	Seed   int64  `json:"seed"`
	Items  int    `json:"items"`
}

// Result is the interface every experiment's typed result satisfies. The
// ASCII and CSV renderers are thin views over the same struct the JSON
// encoding serializes, so the CLI, the HTTP daemon, and the benchmark
// harness share one implementation.
type Result interface {
	Kind() string
	Render(w io.Writer)
	WriteCSV(w io.Writer)
}

// EncodeJSON writes the canonical compact JSON encoding of a result,
// terminated by a newline. Encoding is deterministic (struct-order keys,
// no timestamps), which the service layer relies on: identical requests
// must produce byte-identical responses.
func EncodeJSON(w io.Writer, r Result) error {
	b, err := AppendJSON(nil, r)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendJSON appends the bytes EncodeJSON writes for r to dst. A result
// that holds parts already in canonical form (a batch's encoded items)
// writes itself through its own AppendJSON method, which must produce
// exactly those bytes; every other result goes through encoding/json.
func AppendJSON(dst []byte, r Result) ([]byte, error) {
	if a, ok := r.(interface{ AppendJSON([]byte) []byte }); ok {
		return a.AppendJSON(dst), nil
	}
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(r)
	return buf.Bytes(), err
}

// EncodeIndentedJSON writes the two-space-indented encoding used for the
// golden regression files, where human-readable diffs matter more than
// size.
func EncodeIndentedJSON(w io.Writer, r Result) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Float is a float64 whose JSON encoding round-trips the non-finite
// values encoding/json rejects: +Inf, -Inf and NaN become the strings
// "inf", "-inf" and "nan" — the same spellings the CSV renderers use
// (see formatFloat), so the two machine-readable encodings agree.
type Float float64

// MarshalJSON encodes non-finite values as strings and finite ones
// exactly as encoding/json encodes a float64: the shortest
// representation, in exponent form below 1e-6 and from 1e21 up, with
// the exponent's leading zero dropped (e-09 becomes e-9).
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-inf"`), nil
	case math.IsNaN(v):
		return []byte(`"nan"`), nil
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(make([]byte, 0, 24), v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// UnmarshalJSON accepts both plain numbers and the non-finite strings.
func (f *Float) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"inf"`:
		*f = Float(math.Inf(1))
		return nil
	case `"-inf"`:
		*f = Float(math.Inf(-1))
		return nil
	case `"nan"`:
		*f = Float(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("experiments: bad float %s: %w", b, err)
	}
	*f = Float(v)
	return nil
}

// ProgressFunc receives monotone progress of a whole experiment run:
// done items out of the experiment's total (all sizes and passes
// combined). Calls arrive from campaign worker goroutines, serialized.
type ProgressFunc func(done, total int)

// offset adapts a whole-experiment ProgressFunc to one campaign's
// OnProgress hook: the campaign's local count is shifted by the number
// of items completed in earlier campaigns of the same run.
func (p ProgressFunc) offset(off, total int) ProgressFunc {
	if p == nil {
		return nil
	}
	return func(done, _ int) { p(off+done, total) }
}

// Exec is how an experiment runs, as opposed to its config, which is
// what it computes. No Exec field changes a deterministic result byte
// (Fig. 5's wall-clock seconds shrink with Workers), so none is part of
// a config's request identity.
type Exec struct {
	// Workers is the campaign worker-pool size; 0 means all CPUs.
	// Results are identical for every worker count (see package
	// campaign).
	Workers int
	// Progress, when non-nil, receives monotone whole-run progress.
	Progress ProgressFunc
	// Abort, when non-nil and closed, stops the campaign early; the
	// partial result must then be discarded by the caller.
	Abort <-chan struct{}
	// Gen resolves a config's GenSpec to the benchmark generator, so a
	// caller can reuse a warm one; nil builds a fresh generator per run.
	Gen func(GenSpec) *taskgen.Generator
}

// Fixed is an Exec.Gen that answers g for every spec.
func Fixed(g *taskgen.Generator) func(GenSpec) *taskgen.Generator {
	return func(GenSpec) *taskgen.Generator { return g }
}

func (x Exec) generator(spec GenSpec) *taskgen.Generator {
	if x.Gen == nil {
		return spec.Generator()
	}
	return x.Gen(spec)
}

// options returns the engine options of one campaign of a run: its
// item seed, and progress shifted by the off items of earlier
// campaigns out of the run's total.
func (x Exec) options(seed int64, off, total int) campaign.Options {
	return campaign.Options{Workers: x.Workers, Seed: seed, OnProgress: x.Progress.offset(off, total), Abort: x.Abort}
}

// GenSpec is the JSON-serializable subset of taskgen.Config: it
// parameterizes benchmark generation in analysis requests, where a live
// *taskgen.Generator (which carries an unserializable plant set and a
// warm coefficient cache) cannot travel. The zero value means the
// default Table-I generator.
type GenSpec struct {
	UMin       float64 `json:"u_min"`
	UMax       float64 `json:"u_max"`
	BCETMin    float64 `json:"bcet_min"`
	BCETMax    float64 `json:"bcet_max"`
	GridPoints int     `json:"grid_points"`
}

// Normalized fills defaults via taskgen's own defaulting rules, so two
// requests that mean the same generator canonicalize to the same bytes.
// The service layer also keys its generator pool by the normalized spec.
func (g GenSpec) Normalized() GenSpec {
	c := g.taskgenConfig().WithDefaults()
	return GenSpec{UMin: c.UMin, UMax: c.UMax, BCETMin: c.BCETMin, BCETMax: c.BCETMax, GridPoints: c.GridPoints}
}

func (g GenSpec) taskgenConfig() taskgen.Config {
	return taskgen.Config{
		UMin:       g.UMin,
		UMax:       g.UMax,
		BCETMin:    g.BCETMin,
		BCETMax:    g.BCETMax,
		GridPoints: g.GridPoints,
	}
}

// Generator builds a fresh generator for this spec (default plant set).
func (g GenSpec) Generator() *taskgen.Generator {
	return taskgen.NewGenerator(g.taskgenConfig())
}
