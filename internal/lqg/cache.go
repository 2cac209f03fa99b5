package lqg

import (
	"math"

	"ctrlsched/internal/kmemo"
	"ctrlsched/internal/mat"
	"ctrlsched/internal/plant"
)

// cacheVersion tags every lqg fingerprint. Bump it whenever a change
// makes Synthesize or DelayedCost produce different bits for the same
// inputs, so stale process-wide entries can never be served.
const cacheVersion = 1

// Fingerprint kind discriminators.
const (
	kindSynth       = 'S'
	kindDelayedCost = 'D'
)

// hashMat appends a matrix's canonical encoding: dimensions, then the
// row-major element bits. nil encodes distinctly from any real matrix.
func hashMat(h *kmemo.Hasher, m *mat.Matrix) {
	if m == nil {
		h.Int(-1)
		return
	}
	h.Int(m.Rows())
	h.Int(m.Cols())
	h.Floats(m.RawData())
}

// designFingerprint is the canonical identity of one (plant, period)
// synthesis: every numerical input of Synthesize — the continuous
// dynamics, the LQG weights, the noise intensities — plus the sampling
// period. Plant names and recommended period ranges are deliberately
// excluded: they do not enter the numerics, so two differently-named
// plants with identical dynamics share one design.
func designFingerprint(p *plant.Plant, h float64) kmemo.Key {
	hs := kmemo.NewHasher()
	hs.Tag(cacheVersion, kindSynth)
	hashMat(hs, p.Sys.A)
	hashMat(hs, p.Sys.B)
	hashMat(hs, p.Sys.C)
	hashMat(hs, p.Sys.D)
	hs.Float(p.Sys.Ts)
	hashMat(hs, p.Q1)
	hashMat(hs, p.Q2)
	hashMat(hs, p.R1)
	hs.Float(p.R2)
	hs.Float(h)
	return hs.Sum()
}

// Fingerprint returns the design's canonical cache identity. Derived
// kernels (DelayedCost, the jitter-margin analysis) key their own
// process-wide cache entries off it.
func (d *Design) Fingerprint() kmemo.Key { return d.fp }

// matBytes estimates the retained size of one matrix.
func matBytes(m *mat.Matrix) int64 {
	if m == nil {
		return 0
	}
	return int64(m.Rows()*m.Cols())*8 + 48
}

// designBytes estimates the retained size of a cached design. The
// referenced plant is shared with the caller and not counted.
func designBytes(d *Design) int64 {
	return 256 + matBytes(d.Phi) + matBytes(d.Gamma) +
		matBytes(d.Q1d) + matBytes(d.Q12d) + matBytes(d.Q2d) +
		matBytes(d.Rd) + matBytes(d.L) + matBytes(d.Kf) +
		matBytes(d.S) + matBytes(d.Pf)
}

// synthEntry is the cached outcome of one synthesis — failures
// (pathological periods) are as expensive to discover as successes and
// just as deterministic, so both are retained.
type synthEntry struct {
	d   *Design
	err error
}

// SynthesizeCached is Synthesize through the process-wide kernel cache:
// identical (plant, period) inputs — by content, not pointer — share
// one design. The returned *Design is shared between callers and must
// be treated as immutable (every consumer in this repo already does).
// With the cache disabled it is exactly Synthesize.
func SynthesizeCached(p *plant.Plant, h float64) (*Design, error) {
	if h <= 0 {
		panic("lqg: period must be positive")
	}
	c := kmemo.Default()
	if !c.Enabled() {
		return Synthesize(p, h)
	}
	key := designFingerprint(p, h)
	v := c.Do(key, func() (any, int64) {
		d, err := Synthesize(p, h)
		if err != nil {
			return &synthEntry{err: err}, 64
		}
		return &synthEntry{d: d}, designBytes(d)
	})
	se := v.(*synthEntry)
	return se.d, se.err
}

// CostCached is Cost through the process-wide kernel cache.
func CostCached(p *plant.Plant, h float64) float64 {
	d, err := SynthesizeCached(p, h)
	if err != nil {
		return math.Inf(1)
	}
	return d.Cost
}

// DelayedCostCached is DelayedCost through the process-wide kernel
// cache, keyed by the design's fingerprint and the exact delay bits.
// This is the memo the co-design optimizer's inner loop runs on: the
// alternating sweeps revisit the same (design, delay) states across
// iterations, candidate searches, and requests.
func DelayedCostCached(d *Design, delay float64) float64 {
	if delay <= 0 {
		return d.Cost
	}
	c := kmemo.Default()
	if !c.Enabled() || d.fp == (kmemo.Key{}) {
		// A design without a fingerprint (hand-constructed rather than
		// via Synthesize) has no cache identity; caching it under the
		// zero key would alias every such design onto one entry.
		return DelayedCost(d, delay)
	}
	hs := kmemo.NewHasher()
	hs.Tag(cacheVersion, kindDelayedCost)
	hs.Key(d.fp)
	hs.Float(delay)
	v := c.Do(hs.Sum(), func() (any, int64) {
		return DelayedCost(d, delay), 16
	})
	return v.(float64)
}
