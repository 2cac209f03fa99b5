package jobs

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testKey(s string) Key {
	return Key(sha256.Sum256([]byte(s)))
}

func mustOpen(t *testing.T, dir string, opt StoreOptions) *Store {
	t.Helper()
	s, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkBytes requires the store's byte total to equal the summed size
// of the result files on disk.
func checkBytes(t *testing.T, s *Store, dir string) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var disk int64
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), resExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		disk += info.Size()
	}
	if got := s.Stats().Bytes; got != disk {
		t.Fatalf("Stats().Bytes = %d, result files on disk hold %d", got, disk)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, StoreOptions{})
	k := testKey("a")
	body := []byte(`{"answer":42}` + "\n")
	if err := s.Put(k, "analyze", body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// Re-putting the same key is a no-op.
	if err := s.Put(k, "analyze", body); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate put", s.Len())
	}

	// Restart: a fresh store over the same dir serves the same bytes.
	s2 := mustOpen(t, dir, StoreOptions{})
	got, ok = s2.Get(k)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("restarted Get = %q, %v", got, ok)
	}
	if _, ok := s2.Get(testKey("missing")); ok {
		t.Fatal("unknown key hit")
	}
}

// TestStoreCrashSafety truncates and corrupts stored files the way a
// crash mid-write or disk rot would, and checks that damaged results
// are never served: they are quarantined (*.res.corrupt) and the next
// Get misses so the computation re-runs.
func TestStoreCrashSafety(t *testing.T) {
	cases := []struct {
		name     string
		mutilate func(path string) error
	}{
		{"truncated body", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)-3], 0o644)
		}},
		{"flipped body byte", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[len(data)-2] ^= 0x40
			return os.WriteFile(p, data, 0o644)
		}},
		{"garbage header", func(p string) error {
			return os.WriteFile(p, []byte("not a header\nbody"), 0o644)
		}},
		{"empty file", func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, StoreOptions{})
			k := testKey(tc.name)
			body := []byte(`{"v":"` + tc.name + `"}`)
			if err := s.Put(k, "analyze", body); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, k.String()+resExt)
			if err := tc.mutilate(path); err != nil {
				t.Fatal(err)
			}

			// A restarted store indexes the damaged file (size-only scan)
			// but must refuse to serve it.
			s2 := mustOpen(t, dir, StoreOptions{})
			if b, ok := s2.Get(k); ok {
				t.Fatalf("served damaged file: %q", b)
			}
			if _, err := os.Stat(path + corruptExt); err != nil {
				t.Fatalf("damaged file not quarantined: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged file still live: %v", err)
			}
			if st := s2.Stats(); st.Quarantined != 1 {
				t.Fatalf("quarantined = %d", st.Quarantined)
			}
			checkBytes(t, s2, dir)

			// Recompute path: a fresh Put stores cleanly again.
			if err := s2.Put(k, "analyze", body); err != nil {
				t.Fatal(err)
			}
			got, ok := s2.Get(k)
			if !ok || !bytes.Equal(got, body) {
				t.Fatalf("recomputed Get = %q, %v", got, ok)
			}
			checkBytes(t, s2, dir)
			checkBytes(t, mustOpen(t, dir, StoreOptions{}), dir)
		})
	}
}

// TestStoreKeyMismatchQuarantined catches a result file renamed to the
// wrong content address: the header's key disagrees, so it must not be
// served under the new name.
func TestStoreKeyMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, StoreOptions{})
	a, b := testKey("a"), testKey("b")
	if err := s.Put(a, "analyze", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, a.String()+resExt), filepath.Join(dir, b.String()+resExt)); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, StoreOptions{})
	if _, ok := s2.Get(b); ok {
		t.Fatal("served a result under the wrong key")
	}
}

func TestStoreEntryAndByteCaps(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, StoreOptions{MaxEntries: 4})
	for i := 0; i < 10; i++ {
		if err := s.Put(testKey(fmt.Sprint(i)), "analyze", []byte(`{"i":`+fmt.Sprint(i)+`}`)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() > 4 {
		t.Fatalf("entry cap violated: %d", s.Len())
	}
	// Only capped files remain on disk.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range des {
		if strings.HasSuffix(de.Name(), resExt) {
			n++
		}
	}
	if n != s.Len() {
		t.Fatalf("disk has %d files, index %d", n, s.Len())
	}
	// Eviction is oldest first: the four newest puts survive.
	for i := 0; i < 10; i++ {
		if _, ok := s.Get(testKey(fmt.Sprint(i))); ok != (i >= 6) {
			t.Fatalf("entry %d stored = %v after 10 puts under a 4-entry cap", i, ok)
		}
	}

	// Byte cap: each file is ~150 bytes of header + body; cap to roughly
	// two files' worth and confirm the total honors it.
	s2 := mustOpen(t, t.TempDir(), StoreOptions{MaxBytes: 400})
	for i := 0; i < 8; i++ {
		if err := s2.Put(testKey(fmt.Sprint(i)), "analyze", bytes.Repeat([]byte("x"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s2.Stats(); st.Bytes > 400 {
		t.Fatalf("byte cap violated: %d", st.Bytes)
	}
	if _, ok := s2.Get(testKey("7")); !ok {
		t.Fatal("byte cap evicted the newest entry")
	}
	if _, ok := s2.Get(testKey("0")); ok {
		t.Fatal("byte cap kept the oldest entry")
	}

	// A key quarantined and put again is the newest entry, so the first
	// put's place in the eviction order must not evict it. The third put
	// evicts, so the order is kept from then on.
	dir3 := t.TempDir()
	s3 := mustOpen(t, dir3, StoreOptions{MaxEntries: 2})
	a, b, c, d := testKey("a"), testKey("b"), testKey("c"), testKey("d")
	for _, k := range []Key{a, b, c} {
		if err := s3.Put(k, "analyze", []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir3, b.String()+resExt), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get(b); ok {
		t.Fatal("served a damaged file")
	}
	for _, k := range []Key{b, d} {
		if err := s3.Put(k, "analyze", []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s3.Get(b); !ok {
		t.Fatal("re-put entry evicted in place of the oldest")
	}
	if _, ok := s3.Get(c); ok {
		t.Fatal("oldest entry kept over the cap")
	}
}

func TestStoreMaxAge(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, StoreOptions{MaxAge: time.Hour})
	old, fresh := testKey("old"), testKey("fresh")
	if err := s.Put(old, "analyze", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fresh, "analyze", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	// Age the first file on disk, then reopen: open-time GC drops it.
	stale := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(filepath.Join(dir, old.String()+resExt), stale, stale); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, StoreOptions{MaxAge: time.Hour})
	if _, ok := s2.Get(old); ok {
		t.Fatal("expired entry served")
	}
	if _, ok := s2.Get(fresh); !ok {
		t.Fatal("fresh entry dropped")
	}
}

// TestStoreConcurrentChurn hammers put/get/GC from many goroutines with
// tight bounds; run under -race in CI. Correctness bar: no data races,
// no panics, every successful Get returns exactly the bytes put for
// that key, and the byte total matches the files on disk afterwards and
// after a reopen.
func TestStoreConcurrentChurn(t *testing.T) {
	dir := t.TempDir()
	opt := StoreOptions{MaxEntries: 8, MaxBytes: 4096}
	s := mustOpen(t, dir, opt)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("%d-%d", g, i%16)
				k := testKey(id)
				body := []byte(`{"id":"` + id + `"}`)
				_ = s.Put(k, "analyze", body)
				if b, ok := s.Get(k); ok && !bytes.Equal(b, body) {
					t.Errorf("Get(%s) returned foreign bytes %q", id, b)
					return
				}
				if i%10 == 0 {
					s.GC()
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() > 8 {
		t.Fatalf("entry cap violated after churn: %d", s.Len())
	}
	if st := s.Stats(); st.Bytes > 4096 {
		t.Fatalf("byte cap violated after churn: %d", st.Bytes)
	}
	checkBytes(t, s, dir)
	checkBytes(t, mustOpen(t, dir, opt), dir)
}

// TestNilStore pins the disabled-store contract: nil receivers are
// no-ops, not panics.
func TestNilStore(t *testing.T) {
	var s *Store
	if err := s.Put(testKey("x"), "analyze", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey("x")); ok {
		t.Fatal("nil store hit")
	}
	s.GC()
	if s.Len() != 0 || s.Dir() != "" || s.Stats().Enabled {
		t.Fatal("nil store not inert")
	}
}

// noSyncFS elides fsync, as the fleet benchmark's store does, so a
// benchmark measures the store rather than the disk's flush latency.
type noSyncFS struct{ FS }

func (fs noSyncFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := fs.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ File }

func (noSyncFile) Sync() error { return nil }

// BenchmarkStorePutAtCapacity compares a Put into a store below its
// entry cap with one into a store at the default cap, where every Put
// evicts the oldest entry. The prefill goes one past the cap, so the
// one-time sort of the eviction order happens before timing.
func BenchmarkStorePutAtCapacity(b *testing.B) {
	body := bytes.Repeat([]byte("x"), 512)
	for _, tc := range []struct {
		name       string
		maxEntries int
		prefill    int
	}{
		{"below_cap", math.MaxInt32, 0},
		{"at_cap", DefaultStoreEntries, DefaultStoreEntries + 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := OpenStore(b.TempDir(), StoreOptions{MaxEntries: tc.maxEntries, FS: noSyncFS{OSFS()}})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < tc.prefill; i++ {
				if err := s.Put(testKey(fmt.Sprint("fill", i)), "analyze", body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(testKey(fmt.Sprint(i)), "analyze", body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
