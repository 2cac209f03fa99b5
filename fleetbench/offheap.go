package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"syscall"
)

// offHeap is an append-only array of fixed-size records in anonymous
// memory outside the Go heap. The fleet under test shares the
// benchmark's process and heap, and its live heap is a few MB, so the
// garbage collector's pace follows every retained byte: records kept on
// the heap would make collection rarer as they piled up, speeding the
// fleet up over a run, and would count toward live_heap_mb. Only the
// pages written become resident. Not safe for concurrent use.
type offHeap struct {
	mem  []byte
	size int // bytes per record
	n    int
}

var errOffHeapFull = errors.New("off-heap record buffer full")

func newOffHeap(size, max int) (*offHeap, error) {
	mem, err := syscall.Mmap(-1, 0, size*max, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map record buffer: %w", err)
	}
	return &offHeap{mem: mem, size: size}, nil
}

// next returns the next record's bytes for the caller to fill.
func (o *offHeap) next() ([]byte, error) {
	if (o.n+1)*o.size > len(o.mem) {
		return nil, errOffHeapFull
	}
	o.n++
	return o.mem[(o.n-1)*o.size : o.n*o.size], nil
}

func (o *offHeap) at(k int) []byte { return o.mem[k*o.size : (k+1)*o.size] }

func (o *offHeap) free() {
	if o.mem != nil {
		_ = syscall.Munmap(o.mem) // the mapping is private to o
		o.mem = nil
	}
}

// responseLog records, for every measured request of one client, its
// latency, request index, HTTP status and response SHA-256. Record
// layout: latency (float64 bits), request index (uint32), status
// (uint32), SHA-256.
type responseLog struct{ *offHeap }

func newResponseLog() (*responseLog, error) {
	o, err := newOffHeap(48, 1<<20)
	if err != nil {
		return nil, err
	}
	return &responseLog{o}, nil
}

func (l *responseLog) add(latencyMS float64, i, status int, sum [32]byte) error {
	r, err := l.next()
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(r, math.Float64bits(latencyMS))
	binary.LittleEndian.PutUint32(r[8:], uint32(i))
	binary.LittleEndian.PutUint32(r[12:], uint32(status))
	copy(r[16:], sum[:])
	return nil
}

// each calls fn for every record in order.
func (l *responseLog) each(fn func(latencyMS float64, i, status int, sum [32]byte)) {
	for k := 0; k < l.n; k++ {
		r := l.at(k)
		var sum [32]byte
		copy(sum[:], r[16:])
		fn(math.Float64frombits(binary.LittleEndian.Uint64(r)), int(binary.LittleEndian.Uint32(r[8:])),
			int(binary.LittleEndian.Uint32(r[12:])), sum)
	}
}
