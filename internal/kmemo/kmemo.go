// Package kmemo is the process-wide memo for expensive kernel results:
// LQG syntheses, delay-aware costs, and jitter-margin curves, shared
// across requests, experiment campaigns, and the co-design optimizer.
//
// Before kmemo every such result died with its request: taskgen's
// coefficient cache was per-generator, the assignment searcher's memo
// per-search, and codesign's (design, delay) memo per-candidate-search,
// so a daemon serving heavy analyze/batch/codesign traffic re-ran the
// same Riccati iterations, Van Loan integrals, and frequency sweeps
// thousands of times for identical (plant, period, delay) inputs.
// Alternating-minimization schemes in particular revisit the same
// subproblem states repeatedly, so a shared memo converts the
// optimizer's inner loop from O(solves) to O(distinct states).
//
// The design constraints, in order:
//
//   - Correctness is free: every cached value is a pure function of its
//     key (a SHA-256 fingerprint over a canonical encoding of the
//     inputs plus a kernel version tag), so results are bit-identical
//     with the cache on, off, or churning, and independent of which
//     worker filled an entry first.
//   - The hit path is allocation-free and takes one shard mutex: keys
//     are fixed-size [32]byte values (no hex strings, no boxing), the
//     shard count scales with GOMAXPROCS, and values are returned as
//     the stored interface without copying.
//   - Concurrent misses on one key compute once: each entry carries a
//     sync.Once slot (the process-wide generalization of taskgen's
//     per-generator coeffCache), so workers hitting distinct keys
//     compute in parallel and workers racing on one key block only on
//     that key's first computation.
//   - Memory is bounded by entries and bytes exactly: every admission
//     and eviction adjusts a per-shard byte count by the entry's
//     declared size, and a CLOCK hand (second-chance) evicts cold
//     entries when either bound is exceeded. A value larger than a
//     shard's byte budget is served but never retained.
package kmemo

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Key is a canonical fingerprint identifying one kernel computation.
// Keys are produced by Hasher (see fingerprint.go); the fixed-size array
// form keeps map operations allocation-free.
type Key [32]byte

// Default capacity of the process-wide cache. 8192 entries comfortably
// hold every (plant, period) pair of a large campaign plus the delayed
// cost working set of a co-design search; 256 MiB bounds the worst case
// of margin curves for millions of distinct keys.
const (
	DefaultEntries = 8192
	DefaultBytes   = 256 << 20
)

// Stats is a snapshot of the cache counters.
type Stats struct {
	Enabled   bool  `json:"enabled"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	EntryCap  int   `json:"entry_cap"`
	ByteCap   int64 `json:"byte_cap"`
}

// entry is one cache slot. once provides per-entry singleflight; val,
// size, ready, and ref are guarded by the owning shard's mutex (ready
// additionally synchronizes through once: a joiner returning from
// once.Do observes the leader's writes).
type entry struct {
	key  Key
	once sync.Once
	val  any
	size int64
	// ready marks a committed value; ref is the CLOCK second-chance bit.
	ready, ref bool
}

// shard is one lock domain: a map for lookup plus a CLOCK ring of the
// committed entries in admission order.
type shard struct {
	mu    sync.Mutex
	items map[Key]*entry
	ring  []*entry
	hand  int
	bytes int64

	hits, misses, evicts int64
}

// Cache is a sharded, entry+byte-bounded kernel-result memo. The zero
// value is not usable; use New. A nil *Cache is a valid disabled cache.
type Cache struct {
	shards   []shard
	mask     uint32
	entryCap int   // total, across shards
	byteCap  int64 // total, across shards

	// per-shard bounds
	shardEntries int
	shardBytes   int64
}

// New builds a cache bounded by maxEntries entries and maxBytes stored
// bytes in total. A non-positive bound disables the cache entirely
// (every Do computes; Stats reports Enabled false), which is the
// behavior switch the service's -kernel-cache-off flag restores.
func New(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 || maxBytes <= 0 {
		return nil
	}
	// Small caches (operator-tuned caps, tests, churn experiments)
	// collapse to fewer shards: the bounds are divided across shards,
	// so each shard must keep a useful entry and byte budget — a shard
	// holding one entry would evict on every same-shard admission while
	// other shards sat empty, thrashing far below the stated cap.
	const (
		minShardEntries = 8
		minShardBytes   = 64 << 10
	)
	n := shardCount()
	for n > 1 && (maxEntries/n < minShardEntries || maxBytes/int64(n) < minShardBytes) {
		n >>= 1
	}
	c := &Cache{
		shards:       make([]shard, n),
		mask:         uint32(n - 1),
		entryCap:     maxEntries,
		byteCap:      maxBytes,
		shardEntries: maxEntries / n,
		shardBytes:   maxBytes / int64(n),
	}
	for i := range c.shards {
		c.shards[i].items = make(map[Key]*entry)
	}
	return c
}

// shardCount picks a power-of-two shard count scaled to the scheduler
// width, so shard-mutex contention stays flat as cores grow.
func shardCount() int {
	n := 1
	for n < 4*runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	if n < 8 {
		n = 8
	}
	if n > 512 {
		n = 512
	}
	return n
}

func (c *Cache) shardOf(k Key) *shard {
	// The key is a SHA-256 digest: any 4 bytes are uniformly distributed.
	idx := (uint32(k[0]) | uint32(k[1])<<8 | uint32(k[2])<<16 | uint32(k[3])<<24) & c.mask
	return &c.shards[idx]
}

// Enabled reports whether the cache retains results.
func (c *Cache) Enabled() bool { return c != nil }

// Do returns the cached value for k, computing it at most once per
// residency via compute. compute returns the value and its retained
// size in bytes (used for exact byte accounting); it must be a pure
// function of k. The returned value is shared between callers and must
// be treated as immutable.
func (c *Cache) Do(k Key, compute func() (any, int64)) any {
	if c == nil {
		v, _ := compute()
		return v
	}
	sh := c.shardOf(k)
	for {
		sh.mu.Lock()
		e, ok := sh.items[k]
		if ok && e.ready {
			e.ref = true
			sh.hits++
			v := e.val
			sh.mu.Unlock()
			return v
		}
		if !ok {
			e = &entry{key: k}
			sh.items[k] = e
		}
		sh.mu.Unlock()

		led := false
		e.once.Do(func() {
			led = true
			committed := false
			defer func() {
				// A panicking compute must not leave a poisoned entry
				// behind: drop the slot so later callers recompute.
				if !committed {
					sh.mu.Lock()
					if sh.items[k] == e {
						delete(sh.items, k)
					}
					sh.mu.Unlock()
				}
			}()
			v, size := compute()
			sh.mu.Lock()
			e.val, e.size = v, size
			e.ready, e.ref = true, true
			sh.misses++
			switch {
			case sh.items[k] != e:
				// A concurrent Reset detached this slot; serve the value
				// without retaining it.
			case size > c.shardBytes || c.shardEntries < 1:
				// Oversized value: serve it, never retain it.
				delete(sh.items, k)
			default:
				sh.ring = append(sh.ring, e)
				sh.bytes += size
				sh.evictLocked(c)
			}
			sh.mu.Unlock()
			committed = true
		})
		sh.mu.Lock()
		ready := e.ready
		if ready {
			e.ref = true
			if !led {
				sh.hits++ // coalesced onto the leader's computation
			}
		}
		v := e.val
		sh.mu.Unlock()
		if ready {
			return v
		}
		// The leader's compute panicked out from under this joiner;
		// retry with a fresh entry.
	}
}

// evictLocked runs the CLOCK hand until both shard bounds hold. Entries
// referenced since the last pass get a second chance; pending entries
// are never in the ring, so in-flight computations are never evicted.
func (sh *shard) evictLocked(c *Cache) {
	for len(sh.ring) > c.shardEntries || sh.bytes > c.shardBytes {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[sh.hand]
		if e.ref {
			e.ref = false
			sh.hand++
			continue
		}
		sh.bytes -= e.size
		delete(sh.items, e.key)
		sh.ring = append(sh.ring[:sh.hand], sh.ring[sh.hand+1:]...)
		sh.evicts++
	}
}

// Stats sums the per-shard counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{Enabled: true, EntryCap: c.entryCap, ByteCap: c.byteCap}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Evictions += sh.evicts
		s.Entries += len(sh.ring)
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

// Reset drops every entry and zeroes the counters; pending computations
// commit into empty shards afterwards (they re-admit their entries via
// the map slots they still hold, which Reset has detached — their
// values are simply not retained).
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.items = make(map[Key]*entry)
		sh.ring = nil
		sh.hand = 0
		sh.bytes = 0
		sh.hits, sh.misses, sh.evicts = 0, 0, 0
		sh.mu.Unlock()
	}
}

// def is the process-wide cache every kernel wrapper consults.
var def atomic.Pointer[holder]

// holder wraps the *Cache so a disabled (nil) cache is still a valid
// atomic value.
type holder struct{ c *Cache }

func init() {
	def.Store(&holder{c: New(DefaultEntries, DefaultBytes)})
}

// Default returns the process-wide kernel cache (nil when disabled).
func Default() *Cache { return def.Load().c }

// Configure replaces the process-wide cache with one bounded by the
// given capacities. Reconfiguring with the current capacities is a
// no-op, so repeated Service construction with identical flags does not
// drop a warm cache. Non-positive capacities disable the cache.
func Configure(maxEntries int, maxBytes int64) {
	cur := Default()
	if maxEntries <= 0 || maxBytes <= 0 {
		if cur == nil {
			return
		}
		def.Store(&holder{c: nil})
		return
	}
	if cur != nil && cur.entryCap == maxEntries && cur.byteCap == maxBytes {
		return
	}
	def.Store(&holder{c: New(maxEntries, maxBytes)})
}

// Disable turns the process-wide cache off: every kernel call computes
// directly, restoring the pre-kmemo behavior exactly.
func Disable() { Configure(0, 0) }
