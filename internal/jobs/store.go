package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Store is the durable, content-addressed result store: one file per
// canonical request key, so a restarted daemon serves prior results
// without recompute. Every write is atomic (tmp + rename) and every
// read is verified (declared length + SHA-256 of the body), so a file
// truncated by a crash or corrupted on disk is never served — it is
// quarantined and the computation re-runs, which is always correct.
//
// File layout: hex(key).res containing one JSON header line
//
//	{"schema":1,"key":"<hex>","kind":"codesign","len":N,"sha256":"<hex>"}
//
// followed by exactly N raw result bytes. Retention is bounded by
// entries, bytes (whole-file accounting), and age, enforced oldest-
// mtime-first on open and after every put.

// Key is a 32-byte content-address: the service's canonical request
// key (SHA-256 over schema + kind + canonical JSON).
type Key [32]byte

func (k Key) String() string { return hex.EncodeToString(k[:]) }

// storeSchema versions the result-file header.
const storeSchema = 1

// resExt is the result-file suffix; quarantined files get corruptExt
// appended so they are excluded from rescans but left for inspection.
const (
	resExt     = ".res"
	corruptExt = ".corrupt"
)

// Default retention bounds.
const (
	DefaultStoreEntries = 4096
	DefaultStoreBytes   = 1 << 30
)

// StoreOptions bounds a store's retention. Zero values take the
// defaults above; MaxAge zero means no age bound.
type StoreOptions struct {
	MaxEntries int
	MaxBytes   int64
	MaxAge     time.Duration
	// FS overrides the filesystem the store mutates through (nil means
	// the real one). Tests inject deterministic write/sync/rename
	// faults here via internal/faultinject.
	FS FS
}

// StoreStats is a snapshot of the store counters.
type StoreStats struct {
	Enabled       bool    `json:"enabled"`
	Entries       int     `json:"entries"`
	Bytes         int64   `json:"bytes"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Puts          int64   `json:"puts"`
	PutErrors     int64   `json:"put_errors"`
	Evictions     int64   `json:"evictions"`
	Quarantined   int64   `json:"quarantined"`
	EntryCap      int     `json:"entry_cap"`
	ByteCap       int64   `json:"byte_cap"`
	MaxAgeSeconds float64 `json:"max_age_seconds"`
}

type storeEntry struct {
	size  int64 // whole file: header + body
	mtime int64 // Unix nanoseconds
}

// storeSlot is one place in the eviction order. It is stale once its
// key left the index or was stored again under a newer mtime.
type storeSlot struct {
	k     Key
	mtime int64
}

// Store is safe for concurrent use. A nil *Store is a valid disabled
// store: every Get misses and every Put is a no-op.
type Store struct {
	dir string
	opt StoreOptions
	fs  FS

	mu    sync.Mutex
	index map[Key]storeEntry
	bytes int64 // summed size of the index entries
	// order holds the index's keys oldest first once retention needs
	// them: gcLocked sorts the index into it the first time the store
	// is over a cap or has an age bound, then Put appends. Eviction and
	// the age bound take from its front, so a Put at the cap costs O(1),
	// not a sort of the whole index. A store that never reaches a cap
	// keeps it nil and spends no memory on it.
	order []storeSlot

	hits, misses, puts, putErrs, evicts, quarantined int64
}

type storeHeader struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	Kind   string `json:"kind"`
	Len    int64  `json:"len"`
	SHA256 string `json:"sha256"`
}

// OpenStore opens (creating if needed) a result store rooted at dir,
// rebuilding the index from the files present and applying retention
// immediately, so a daemon restarted with tighter bounds converges at
// open rather than at first put.
func OpenStore(dir string, opt StoreOptions) (*Store, error) {
	if opt.MaxEntries <= 0 {
		opt.MaxEntries = DefaultStoreEntries
	}
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = DefaultStoreBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: open store: %w", err)
	}
	fs := opt.FS
	if fs == nil {
		fs = OSFS()
	}
	s := &Store{dir: dir, opt: opt, fs: fs, index: make(map[Key]storeEntry)}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: open store: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, resExt) {
			continue
		}
		hexKey := strings.TrimSuffix(name, resExt)
		raw, err := hex.DecodeString(hexKey)
		if err != nil || len(raw) != len(Key{}) {
			continue // not one of ours
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		var k Key
		copy(k[:], raw)
		s.index[k] = storeEntry{size: info.Size(), mtime: info.ModTime().UnixNano()}
		s.bytes += info.Size()
	}
	s.mu.Lock()
	s.gcLocked()
	s.mu.Unlock()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.String()+resExt)
}

// Get returns the stored result bytes for k, verifying the file
// against its header before serving a byte. Any mismatch — truncation,
// corruption, a key collision on disk — quarantines the file and
// reports a miss, so callers recompute.
func (s *Store) Get(k Key) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	_, ok := s.index[k]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		s.quarantine(k)
		return nil, false
	}
	body, ok := verify(k, data)
	if !ok {
		s.quarantine(k)
		return nil, false
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return body, true
}

// verify checks one result file's header against its body.
func verify(k Key, data []byte) ([]byte, bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, false
	}
	var hdr storeHeader
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return nil, false
	}
	body := data[nl+1:]
	if hdr.Schema != storeSchema || hdr.Key != k.String() || hdr.Len != int64(len(body)) {
		return nil, false
	}
	sum := sha256.Sum256(body)
	if hdr.SHA256 != hex.EncodeToString(sum[:]) {
		return nil, false
	}
	return body, true
}

// quarantine sets a damaged file aside (hex(key).res.corrupt) and
// drops it from the index; the next Get misses and the computation
// re-runs. A file that vanished entirely just drops from the index.
func (s *Store) quarantine(k Key) {
	path := s.path(k)
	s.fs.Remove(path + corruptExt)
	err := s.fs.Rename(path, path+corruptExt)
	s.mu.Lock()
	if e, ok := s.index[k]; ok {
		s.bytes -= e.size
		delete(s.index, k)
	}
	s.misses++
	if err == nil {
		s.quarantined++
	}
	s.mu.Unlock()
}

// Put persists one result atomically. Re-putting a key that is already
// stored is a no-op (results are content-addressed: same key, same
// bytes). Errors are returned for observability but callers may ignore
// them — the store is a cache, not the source of truth.
func (s *Store) Put(k Key, kind string, body []byte) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	_, exists := s.index[k]
	s.mu.Unlock()
	if exists {
		return nil
	}
	sum := sha256.Sum256(body)
	hdr, err := json.Marshal(storeHeader{
		Schema: storeSchema,
		Key:    k.String(),
		Kind:   kind,
		Len:    int64(len(body)),
		SHA256: hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return err
	}
	f, err := s.fs.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		s.mu.Lock()
		s.putErrs++
		s.mu.Unlock()
		return err
	}
	tmp := f.Name()
	_, err = f.Write(append(append(hdr, '\n'), body...))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmp, s.path(k))
	}
	if err != nil {
		s.fs.Remove(tmp)
		s.mu.Lock()
		s.putErrs++
		s.mu.Unlock()
		return err
	}
	e := storeEntry{size: int64(len(hdr)) + 1 + int64(len(body)), mtime: time.Now().UnixNano()}
	s.mu.Lock()
	if old, ok := s.index[k]; ok {
		s.bytes -= old.size // a concurrent Put of the same key landed first
	}
	s.index[k] = e
	if s.order != nil {
		s.order = append(s.order, storeSlot{k, e.mtime})
	}
	s.bytes += e.size
	s.puts++
	s.gcLocked()
	s.mu.Unlock()
	return nil
}

// GC applies the retention bounds now: it evicts oldest first until
// the oldest entry is within the age bound and the entry and byte caps
// hold.
func (s *Store) GC() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.gcLocked()
	s.mu.Unlock()
}

func (s *Store) gcLocked() {
	if s.order == nil {
		if s.opt.MaxAge == 0 && len(s.index) <= s.opt.MaxEntries && s.bytes <= s.opt.MaxBytes {
			return
		}
		s.order = make([]storeSlot, 0, len(s.index))
		for k, e := range s.index {
			s.order = append(s.order, storeSlot{k, e.mtime})
		}
		sort.Slice(s.order, func(i, j int) bool {
			a, b := s.order[i], s.order[j]
			if a.mtime != b.mtime {
				return a.mtime < b.mtime
			}
			return bytes.Compare(a.k[:], b.k[:]) < 0
		})
	}
	cutoff := int64(math.MinInt64)
	if s.opt.MaxAge > 0 {
		cutoff = time.Now().Add(-s.opt.MaxAge).UnixNano()
	}
	for len(s.order) > 0 {
		front := s.order[0]
		e, ok := s.index[front.k]
		live := ok && e.mtime == front.mtime
		if live && e.mtime >= cutoff && len(s.index) <= s.opt.MaxEntries && s.bytes <= s.opt.MaxBytes {
			return
		}
		s.order = s.order[1:]
		if live {
			s.evictLocked(front.k)
		}
	}
}

// evictLocked drops k, which must be in the index.
func (s *Store) evictLocked(k Key) {
	s.fs.Remove(s.path(k))
	s.bytes -= s.index[k].size
	delete(s.index, k)
	s.evicts++
}

// Len returns the number of stored results.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Enabled:       true,
		Entries:       len(s.index),
		Bytes:         s.bytes,
		Hits:          s.hits,
		Misses:        s.misses,
		Puts:          s.puts,
		PutErrors:     s.putErrs,
		Evictions:     s.evicts,
		Quarantined:   s.quarantined,
		EntryCap:      s.opt.MaxEntries,
		ByteCap:       s.opt.MaxBytes,
		MaxAgeSeconds: s.opt.MaxAge.Seconds(),
	}
}
