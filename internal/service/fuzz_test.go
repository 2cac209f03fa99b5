package service

import (
	"bytes"
	"errors"
	"testing"
)

// The canonicalization boundary: every client body reaches a kernel
// only through a kind's prepare step, which decodes it strictly,
// normalizes and validates it, and keys it by its canonical bytes. The
// fuzz targets below hold prepare to its contract on arbitrary bodies:
// it fails with a 4xx *Error (the input's fault, never a 500) or
// succeeds, and a success is a fixed point — its canonical bytes
// decode and normalize again to the same bytes and the same key, so a
// request and its canonical form share one cache entry.

// FuzzAnalyzeRequest fuzzes /v1/analyze bodies, seeded with the kind
// table's example and every item of the golden batch request.
func FuzzAnalyzeRequest(f *testing.F) {
	f.Add([]byte(analyzeKind.example))
	items, ok := SplitItems([]byte(goldenBatchBody), true)
	if !ok {
		f.Fatal("the golden batch request does not split")
	}
	for _, item := range items {
		f.Add([]byte(item))
	}
	s := New(Config{Workers: 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkPrepare(t, s, analyzeKind, AnalyzeRequest.normalize, raw)
	})
}

// FuzzCodesignRequest fuzzes /v1/codesign bodies, seeded with the kind
// table's example and the golden codesign request.
func FuzzCodesignRequest(f *testing.F) {
	f.Add([]byte(codesignKind.example))
	f.Add([]byte(codesignBody))
	s := New(Config{Workers: 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkPrepare(t, s, codesignKind, CodesignRequest.normalize, raw)
	})
}

// checkPrepare holds one body to the boundary's contract for kind k,
// whose prepare step decodes with decodeNormalized(raw, normalize).
func checkPrepare[T any](t *testing.T, s *Service, k *kind, normalize func(T) (T, error), raw []byte) {
	t.Helper()
	req, err := k.prepare(s, raw)
	if err != nil {
		var e *Error
		if !errors.As(err, &e) || e.Status < 400 || e.Status > 499 {
			t.Fatalf("prepare(%q) failed with %v (%T), want a 4xx *Error", raw, err, err)
		}
		return
	}
	_, canonical, err := decodeNormalized(raw, normalize)
	if err != nil {
		t.Fatalf("prepare accepted %q, which its decode refuses: %v", raw, err)
	}
	_, again, err := decodeNormalized(canonical, normalize)
	if err != nil {
		t.Fatalf("the canonical bytes %s of %q do not decode again: %v", canonical, raw, err)
	}
	if !bytes.Equal(canonical, again) {
		t.Fatalf("normalizing %q again moved its canonical bytes:\n%s\n%s", raw, canonical, again)
	}
	req2, err := k.prepare(s, canonical)
	if err != nil || req2.key != req.key {
		t.Fatalf("the canonical bytes %s of %q prepare to key %x (error %v), want %x", canonical, raw, req2.key, err, req.key)
	}
}
