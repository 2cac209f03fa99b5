package kmemo

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// testKey builds a distinct key from an integer.
func testKey(i int) Key {
	h := NewHasher()
	h.Tag(1, 'T')
	h.Int(i)
	return h.Sum()
}

func TestDoComputesOnceAndHits(t *testing.T) {
	c := New(64, 1<<20)
	k := testKey(1)
	calls := 0
	compute := func() (any, int64) { calls++; return 42, 8 }
	for i := 0; i < 5; i++ {
		if v := c.Do(k, compute); v.(int) != 42 {
			t.Fatalf("Do = %v, want 42", v)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Fatalf("stats = %+v, want 1 miss / 4 hits", st)
	}
	if st.Entries != 1 || st.Bytes != 8 {
		t.Fatalf("stats = %+v, want 1 entry / 8 bytes", st)
	}
}

func TestNilCacheComputesEveryTime(t *testing.T) {
	var c *Cache
	if c.Enabled() {
		t.Fatal("nil cache reports enabled")
	}
	calls := 0
	for i := 0; i < 3; i++ {
		c.Do(testKey(1), func() (any, int64) { calls++; return 1, 1 })
	}
	if calls != 3 {
		t.Fatalf("disabled cache memoized: %d calls", calls)
	}
	if st := c.Stats(); st.Enabled || st.Hits != 0 {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

func TestEntryBoundEvicts(t *testing.T) {
	c := New(4, 1<<20) // shardCount collapses to 1 shard for tiny caches
	for i := 0; i < 32; i++ {
		i := i
		c.Do(testKey(i), func() (any, int64) { return i, 8 })
	}
	st := c.Stats()
	if st.Entries > 4 {
		t.Fatalf("entries %d exceed the 4-entry bound", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
	c.invariants(t)
}

func TestByteBoundEvicts(t *testing.T) {
	c := New(1024, 100)
	for i := 0; i < 32; i++ {
		i := i
		c.Do(testKey(i), func() (any, int64) { return i, 30 })
	}
	st := c.Stats()
	if st.Bytes > 100 {
		t.Fatalf("bytes %d exceed the 100-byte bound", st.Bytes)
	}
	if st.Entries == 0 {
		t.Fatal("cache retained nothing")
	}
	c.invariants(t)
}

func TestOversizedValueServedNotRetained(t *testing.T) {
	c := New(1024, 100)
	k := testKey(7)
	calls := 0
	for i := 0; i < 3; i++ {
		v := c.Do(k, func() (any, int64) { calls++; return "big", 1 << 20 })
		if v.(string) != "big" {
			t.Fatalf("Do = %v", v)
		}
	}
	if calls != 3 {
		t.Fatalf("oversized value memoized: %d calls", calls)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized value retained: %+v", st)
	}
	c.invariants(t)
}

func TestPanicDoesNotPoisonEntry(t *testing.T) {
	c := New(64, 1<<20)
	k := testKey(3)
	func() {
		defer func() { _ = recover() }()
		c.Do(k, func() (any, int64) { panic("kernel bug") })
	}()
	// The slot must be recomputable after the panic.
	v := c.Do(k, func() (any, int64) { return "ok", 8 })
	if v.(string) != "ok" {
		t.Fatalf("post-panic Do = %v", v)
	}
	c.invariants(t)
}

func TestReset(t *testing.T) {
	c := New(64, 1<<20)
	c.Do(testKey(1), func() (any, int64) { return 1, 8 })
	c.Reset()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("post-reset stats = %+v", st)
	}
	calls := 0
	c.Do(testKey(1), func() (any, int64) { calls++; return 1, 8 })
	if calls != 1 {
		t.Fatal("reset entry not recomputed")
	}
	c.invariants(t)
}

func TestConfigureIdempotent(t *testing.T) {
	old := Default()
	defer func() {
		Configure(1, 1) // force a swap back
		Configure(DefaultEntries, DefaultBytes)
	}()
	Configure(DefaultEntries, DefaultBytes)
	if Default() != old {
		t.Fatal("Configure with current capacities replaced the cache")
	}
	Disable()
	if Default().Enabled() {
		t.Fatal("Disable left the cache enabled")
	}
	Configure(DefaultEntries, DefaultBytes)
	if !Default().Enabled() {
		t.Fatal("Configure did not re-enable the cache")
	}
}

// TestSingleflight pins the per-entry coalescing: N concurrent misses on
// one key run compute exactly once, and everyone gets its value.
func TestSingleflight(t *testing.T) {
	c := New(64, 1<<20)
	k := testKey(11)
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	const workers = 16
	vals := make([]any, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			vals[w] = c.Do(k, func() (any, int64) {
				calls.Add(1)
				return 99, 8
			})
		}(w)
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", n)
	}
	for w, v := range vals {
		if v.(int) != 99 {
			t.Fatalf("worker %d got %v", w, v)
		}
	}
}

// invariants asserts, under every shard lock, the exact byte-accounting
// contract: the shard byte counter equals the sum of the ring entries'
// sizes, every ring entry is ready and present in the map, and both
// bounds hold.
func (c *Cache) invariants(t *testing.T) {
	t.Helper()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var sum int64
		for _, e := range sh.ring {
			if !e.ready {
				t.Errorf("shard %d: pending entry in ring", i)
			}
			if sh.items[e.key] != e {
				t.Errorf("shard %d: ring entry missing from map", i)
			}
			sum += e.size
		}
		if sum != sh.bytes {
			t.Errorf("shard %d: bytes counter %d != stored sum %d", i, sh.bytes, sum)
		}
		if sh.bytes > c.shardBytes {
			t.Errorf("shard %d: bytes %d exceed bound %d", i, sh.bytes, c.shardBytes)
		}
		if len(sh.ring) > c.shardEntries {
			t.Errorf("shard %d: %d entries exceed bound %d", i, len(sh.ring), c.shardEntries)
		}
		sh.mu.Unlock()
	}
}

// TestConcurrentChurnInvariants is the race hammer: many goroutines
// hitting a deliberately tiny cache with overlapping keys and varying
// sizes, with Resets mixed in, must leave the byte accounting exact and
// the bounds intact. Run under -race in CI.
func TestConcurrentChurnInvariants(t *testing.T) {
	c := New(32, 4096)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				id := rng.Intn(96)
				size := int64(16 + rng.Intn(256))
				v := c.Do(testKey(id), func() (any, int64) { return id, size })
				if v.(int) != id {
					t.Errorf("wrong value for key %d: %v", id, v)
					return
				}
				if i%500 == 250 && w == 0 {
					c.Reset()
				}
			}
		}(w)
	}
	wg.Wait()
	c.invariants(t)
	st := c.Stats()
	if st.Bytes > 4096 || st.Entries > 32 {
		t.Fatalf("bounds exceeded: %+v", st)
	}
}

// TestHasherDeterministic pins that the fingerprint encoding is a pure
// function of the written sequence and sensitive to every field.
func TestHasherDeterministic(t *testing.T) {
	mk := func(version uint32, kind byte, vals ...float64) Key {
		h := NewHasher()
		h.Tag(version, kind)
		h.Floats(vals)
		return h.Sum()
	}
	a := mk(1, 'S', 1, 2, 3)
	if b := mk(1, 'S', 1, 2, 3); a != b {
		t.Fatal("identical inputs produced different keys")
	}
	for name, b := range map[string]Key{
		"version": mk(2, 'S', 1, 2, 3),
		"kind":    mk(1, 'D', 1, 2, 3),
		"value":   mk(1, 'S', 1, 2, 4),
		"length":  mk(1, 'S', 1, 2),
	} {
		if a == b {
			t.Fatalf("key insensitive to %s", name)
		}
	}
}

// BenchmarkHit measures the hot path the issue bounds: a warm lookup
// must stay allocation-free and within tens of nanoseconds.
func BenchmarkHit(b *testing.B) {
	c := New(1024, 1<<20)
	k := testKey(1)
	c.Do(k, func() (any, int64) { return 42, 8 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := c.Do(k, nil); v.(int) != 42 {
			b.Fatal("miss on warm key")
		}
	}
}

// BenchmarkHitParallel exercises shard-mutex contention across
// GOMAXPROCS goroutines on distinct keys.
func BenchmarkHitParallel(b *testing.B) {
	c := New(4096, 1<<20)
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = testKey(i)
		i := i
		c.Do(keys[i], func() (any, int64) { return i, 8 })
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Do(keys[i&255], nil)
			i++
		}
	})
}

// BenchmarkFingerprint measures key derivation for a typical plant-sized
// encoding (five 2×2 matrices plus scalars).
func BenchmarkFingerprint(b *testing.B) {
	data := make([]float64, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewHasher()
		h.Tag(1, 'S')
		for m := 0; m < 5; m++ {
			h.Int(2)
			h.Int(2)
			h.Floats(data)
		}
		h.Float(0.006)
		_ = h.Sum()
	}
}

func TestShardCountTinyCache(t *testing.T) {
	// A cache smaller than the shard count must still enforce ≥1 entry
	// per shard; New collapses to one shard in that case.
	c := New(2, 1024)
	for i := 0; i < 8; i++ {
		i := i
		c.Do(testKey(i), func() (any, int64) { return i, 8 })
	}
	if st := c.Stats(); st.Entries > 2 {
		t.Fatalf("tiny cache holds %d entries, bound 2", st.Entries)
	}
}

func TestStatsString(t *testing.T) {
	// Smoke-test that Stats marshals the fields healthz publishes.
	st := New(8, 1024).Stats()
	s := fmt.Sprintf("%+v", st)
	if s == "" {
		t.Fatal("empty stats")
	}
}
