package kmemo

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Snapshot/Restore persist the warm working set across daemon restarts:
// a restarted process re-admits previously solved kernels (Riccati
// iterations, delayed costs, margin curves) instead of recomputing them
// cold. The format is defensive rather than clever — a length-prefixed
// record stream with a SHA-256 trailer — because a snapshot written
// during a crash must be detectably garbage, never silently wrong:
// Restore verifies the checksum over the whole stream before admitting
// a single entry.
//
// Values are interface-typed, so each cacheable kernel type registers a
// Codec (see RegisterCodec); entries whose type has no codec are simply
// not snapshotted. Restored entries re-enter through the normal
// admission path (byte accounting, CLOCK eviction), so a snapshot can
// never overfill a smaller cache.

// snapMagic identifies a kmemo snapshot and versions its layout. Bump
// it whenever a registered codec's payload layout changes: a snapshot
// under another magic is refused as a whole, and the process starts
// with a cold cache, which is always correct.
const snapMagic = "kmemo-snap-2\n"

// Codec serializes one concrete value type for snapshots. Encode
// reports false when the value is not its type (the registry tries
// codecs in registration order); Decode reconstructs the value from
// Encode's payload.
type Codec struct {
	Name   string
	Encode func(v any) ([]byte, bool)
	Decode func(payload []byte) (any, error)
}

var codecMu sync.Mutex
var codecs []Codec

// RegisterCodec registers a snapshot codec for one value type, keyed by
// a stable name recorded in the snapshot (so a snapshot written by a
// binary with more registered types restores cleanly in one with
// fewer: unknown names are skipped). Registration happens in package
// init functions; re-registering a name replaces the codec.
func RegisterCodec(c Codec) {
	if c.Name == "" || c.Encode == nil || c.Decode == nil {
		panic("kmemo: incomplete codec registration")
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	for i := range codecs {
		if codecs[i].Name == c.Name {
			codecs[i] = c
			return
		}
	}
	codecs = append(codecs, c)
}

func init() {
	// float64 covers the delayed-cost memo (and any other scalar kernel).
	RegisterCodec(Codec{
		Name: "float64",
		Encode: func(v any) ([]byte, bool) {
			f, ok := v.(float64)
			if !ok {
				return nil, false
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			return b[:], true
		},
		Decode: func(p []byte) (any, error) {
			if len(p) != 8 {
				return nil, errors.New("float64 payload must be 8 bytes")
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(p)), nil
		},
	})
}

// encodeValue runs the registered codecs in order until one claims v.
func encodeValue(v any) (name string, payload []byte, ok bool) {
	codecMu.Lock()
	defer codecMu.Unlock()
	for _, c := range codecs {
		if p, claimed := c.Encode(v); claimed {
			return c.Name, p, true
		}
	}
	return "", nil, false
}

func decoderFor(name string) (func([]byte) (any, error), bool) {
	codecMu.Lock()
	defer codecMu.Unlock()
	for _, c := range codecs {
		if c.Name == name {
			return c.Decode, true
		}
	}
	return nil, false
}

// snapRecord is one entry captured under a shard lock, encoded outside
// it (values are immutable once ready).
type snapRecord struct {
	key  Key
	val  any
	size int64
}

// Snapshot writes every codec-encodable ready entry to w and returns
// how many records were written. The stream is
//
//	magic | record... | sha256(magic|records)
//
// with each record: u32 name length, name, the 32-byte key, the i64
// declared size, u32 payload length, payload. Keys are written in
// sorted order so identical cache contents produce identical bytes.
func (c *Cache) Snapshot(w io.Writer) (int, error) {
	if c == nil {
		return 0, nil
	}
	var recs []snapRecord
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.ring {
			if e.ready {
				recs = append(recs, snapRecord{key: e.key, val: e.val, size: e.size})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool {
		return string(recs[i].key[:]) < string(recs[j].key[:])
	})

	hash := sha256.New()
	mw := io.MultiWriter(w, hash)
	if _, err := io.WriteString(mw, snapMagic); err != nil {
		return 0, err
	}
	n := 0
	var hdr [8]byte
	for _, r := range recs {
		name, payload, ok := encodeValue(r.val)
		if !ok {
			continue
		}
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(name)))
		if _, err := mw.Write(hdr[:4]); err != nil {
			return n, err
		}
		if _, err := io.WriteString(mw, name); err != nil {
			return n, err
		}
		if _, err := mw.Write(r.key[:]); err != nil {
			return n, err
		}
		binary.LittleEndian.PutUint64(hdr[:], uint64(r.size))
		if _, err := mw.Write(hdr[:]); err != nil {
			return n, err
		}
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
		if _, err := mw.Write(hdr[:4]); err != nil {
			return n, err
		}
		if _, err := mw.Write(payload); err != nil {
			return n, err
		}
		n++
	}
	if _, err := w.Write(hash.Sum(nil)); err != nil {
		return n, err
	}
	return n, nil
}

// Restore reads a snapshot produced by Snapshot and admits its entries,
// returning how many were restored. A truncated or corrupt stream
// (checksum mismatch) restores nothing and returns an error — a partial
// snapshot is indistinguishable from a tampered one, and cold solves
// are always correct. Entries whose codec is unknown are skipped;
// entries already present are left alone; admission respects the
// cache's bounds, so restoring into a smaller cache evicts normally.
func (c *Cache) Restore(r io.Reader) (int, error) {
	if c == nil {
		return 0, nil
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	if len(data) < len(snapMagic)+sha256.Size {
		return 0, errors.New("kmemo: snapshot truncated")
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if string(body[:len(snapMagic)]) != snapMagic {
		return 0, errors.New("kmemo: not a kmemo snapshot")
	}
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(trailer) {
		return 0, errors.New("kmemo: snapshot checksum mismatch")
	}

	p := body[len(snapMagic):]
	n := 0
	for len(p) > 0 {
		if len(p) < 4 {
			return n, errors.New("kmemo: snapshot record truncated")
		}
		nameLen := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if len(p) < nameLen+KeySize+8+4 {
			return n, errors.New("kmemo: snapshot record truncated")
		}
		name := string(p[:nameLen])
		p = p[nameLen:]
		var key Key
		copy(key[:], p[:KeySize])
		p = p[KeySize:]
		size := int64(binary.LittleEndian.Uint64(p))
		p = p[8:]
		payloadLen := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if len(p) < payloadLen {
			return n, errors.New("kmemo: snapshot record truncated")
		}
		payload := p[:payloadLen]
		p = p[payloadLen:]

		dec, ok := decoderFor(name)
		if !ok {
			continue
		}
		v, err := dec(payload)
		if err != nil {
			return n, fmt.Errorf("kmemo: snapshot record %q: %w", name, err)
		}
		if c.admitRestored(key, v, size) {
			n++
		}
	}
	return n, nil
}

// admitRestored inserts one decoded snapshot entry through the normal
// admission accounting. An existing entry (ready or in flight) wins.
func (c *Cache) admitRestored(k Key, v any, size int64) bool {
	if size <= 0 {
		size = 1
	}
	sh := c.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.items[k]; ok {
		return false
	}
	if size > c.shardBytes || c.shardEntries < 1 {
		return false
	}
	e := &entry{key: k, val: v, size: size, ready: true, ref: true}
	e.once.Do(func() {}) // the slot is pre-filled; joiners must not lead
	sh.items[k] = e
	sh.ring = append(sh.ring, e)
	sh.bytes += size
	sh.evictLocked(c)
	c.restored.Add(1)
	return true
}

// SaveSnapshot atomically writes the process-wide cache's snapshot to
// path (tmp + rename, so a crash mid-write leaves either the old file
// or none). A disabled cache writes nothing and reports 0 records.
func SaveSnapshot(path string) (int, error) {
	c := Default()
	if c == nil {
		return 0, nil
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".kmemo-snap-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	n, err := c.Snapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return n, err
	}
	return n, nil
}

// LoadSnapshot restores the process-wide cache from path. A missing
// file is not an error (first boot); a corrupt one is, and restores
// nothing.
func LoadSnapshot(path string) (int, error) {
	c := Default()
	if c == nil {
		return 0, nil
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	return c.Restore(f)
}
