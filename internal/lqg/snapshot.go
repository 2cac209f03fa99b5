package lqg

import (
	"errors"
	"fmt"

	"ctrlsched/internal/kmemo"
	"ctrlsched/internal/lti"
	"ctrlsched/internal/mat"
	"ctrlsched/internal/plant"
)

// Snapshot codec for the synthesis memo: a persisted *synthEntry lets a
// restarted daemon serve SynthesizeCached hits without re-running the
// Riccati iterations. The full plant is serialized with the design —
// DelayedCost, the co-simulation and the jitter analysis all reach
// through d.Plant after synthesis, so a restored design must be as
// self-contained as a freshly computed one.

func init() {
	kmemo.RegisterCodec(kmemo.Codec{
		Name:   "lqg/synth",
		Encode: encodeSynthEntry,
		Decode: decodeSynthEntry,
	})
}

const (
	synthSnapErr = 0 // payload is an error string
	synthSnapOK  = 1 // payload is a design
)

func encodeSynthEntry(v any) ([]byte, bool) {
	se, ok := v.(*synthEntry)
	if !ok {
		return nil, false
	}
	e := &kmemo.SnapEnc{}
	if se.err != nil {
		e.U64(synthSnapErr)
		e.Str(se.err.Error())
		return e.Buf, true
	}
	e.U64(synthSnapOK)
	appendDesign(e, se.d)
	return e.Buf, true
}

func decodeSynthEntry(payload []byte) (any, error) {
	d := kmemo.NewSnapDec(payload)
	switch tag := d.U64(); tag {
	case synthSnapErr:
		msg := d.Str()
		if err := d.Err(); err != nil {
			return nil, err
		}
		// ErrUnstabilizable round-trips as the sentinel so errors.Is
		// keeps working on restored entries.
		if msg == ErrUnstabilizable.Error() {
			return &synthEntry{err: ErrUnstabilizable}, nil
		}
		return &synthEntry{err: errors.New(msg)}, nil
	case synthSnapOK:
		des, err := readDesign(d)
		if err != nil {
			return nil, err
		}
		return &synthEntry{d: des}, nil
	default:
		return nil, fmt.Errorf("lqg: unknown synth snapshot tag %d", tag)
	}
}

func appendMat(e *kmemo.SnapEnc, m *mat.Matrix) {
	if m == nil {
		e.I64(-1)
		return
	}
	e.I64(int64(m.Rows()))
	e.I64(int64(m.Cols()))
	for _, f := range m.RawData() {
		e.F64(f)
	}
}

func readMat(d *kmemo.SnapDec) (*mat.Matrix, error) {
	r := d.I64()
	if r == -1 {
		return nil, d.Err()
	}
	c := d.I64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if r < 0 || c < 0 || r*c > 1<<20 {
		return nil, fmt.Errorf("lqg: snapshot matrix dims %d×%d out of range", r, c)
	}
	data := make([]float64, r*c)
	for i := range data {
		data[i] = d.F64()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return mat.FromSlice(int(r), int(c), data), nil
}

func appendDesign(e *kmemo.SnapEnc, d *Design) {
	p := d.Plant
	e.Str(p.Name)
	appendMat(e, p.Sys.A)
	appendMat(e, p.Sys.B)
	appendMat(e, p.Sys.C)
	appendMat(e, p.Sys.D)
	e.F64(p.Sys.Ts)
	appendMat(e, p.Q1)
	appendMat(e, p.Q2)
	appendMat(e, p.R1)
	e.F64(p.R2)
	e.F64(p.HMin)
	e.F64(p.HMax)

	e.F64(d.H)
	appendMat(e, d.Phi)
	appendMat(e, d.Gamma)
	appendMat(e, d.Q1d)
	appendMat(e, d.Q12d)
	appendMat(e, d.Q2d)
	appendMat(e, d.Rd)
	e.F64(d.R2d)
	appendMat(e, d.L)
	appendMat(e, d.Kf)
	appendMat(e, d.S)
	appendMat(e, d.Pf)
	e.F64(d.Cost)
	e.F64(d.JNoise)
	e.Raw(d.fp[:])
}

func readDesign(d *kmemo.SnapDec) (*Design, error) {
	name := d.Str()
	var mats [4]*mat.Matrix
	for i := range mats {
		m, err := readMat(d)
		if err != nil {
			return nil, err
		}
		mats[i] = m
	}
	ts := d.F64()
	sys, err := lti.NewSS(mats[0], mats[1], mats[2], mats[3], ts)
	if err != nil {
		return nil, fmt.Errorf("lqg: snapshot plant dynamics: %w", err)
	}
	q1, err := readMat(d)
	if err != nil {
		return nil, err
	}
	q2, err := readMat(d)
	if err != nil {
		return nil, err
	}
	r1, err := readMat(d)
	if err != nil {
		return nil, err
	}
	p := &plant.Plant{Name: name, Sys: sys, Q1: q1, Q2: q2, R1: r1}
	p.R2 = d.F64()
	p.HMin = d.F64()
	p.HMax = d.F64()

	des := &Design{Plant: p}
	des.H = d.F64()
	fields := []**mat.Matrix{&des.Phi, &des.Gamma, &des.Q1d, &des.Q12d, &des.Q2d, &des.Rd}
	for _, f := range fields {
		m, err := readMat(d)
		if err != nil {
			return nil, err
		}
		*f = m
	}
	des.R2d = d.F64()
	fields = []**mat.Matrix{&des.L, &des.Kf, &des.S, &des.Pf}
	for _, f := range fields {
		m, err := readMat(d)
		if err != nil {
			return nil, err
		}
		*f = m
	}
	des.Cost = d.F64()
	des.JNoise = d.F64()
	copy(des.fp[:], d.Raw(kmemo.KeySize))
	if err := d.Err(); err != nil {
		return nil, err
	}
	return des, nil
}

// AppendDesignSnap and ReadDesignSnap expose the design encoding to
// codecs in other packages that embed a design (the jitter margin).
func AppendDesignSnap(e *kmemo.SnapEnc, d *Design) { appendDesign(e, d) }

// ReadDesignSnap decodes a design written by AppendDesignSnap.
func ReadDesignSnap(d *kmemo.SnapDec) (*Design, error) { return readDesign(d) }
