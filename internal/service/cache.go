package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
)

// cacheKey identifies one canonical analysis request: a SHA-256 over the
// schema version (fixed-width, so no two versions ever hash alike), the
// request kind, and the canonicalized configuration bytes. Using the
// digest as the map key keeps the cache's memory footprint independent
// of request size, and the fixed-size value flows through the flight and
// coalescing maps without any per-request string conversion.
type cacheKey [sha256.Size]byte

// keyHasher is the pooled scratch for key derivation: a reusable
// sha256 state plus small header/sum buffers, so deriving a key
// streams the canonical bytes (no body-sized copy) and allocates
// nothing in steady state (the previous implementation allocated a
// fresh digest state per request).
type keyHasher struct {
	h   hash.Hash
	hdr []byte
	sum []byte
}

var keyHasherPool = sync.Pool{New: func() any {
	return &keyHasher{h: sha256.New(), hdr: make([]byte, 0, 64), sum: make([]byte, 0, sha256.Size)}
}}

func makeKey(kind string, canonical []byte) cacheKey {
	kh := keyHasherPool.Get().(*keyHasher)
	kh.h.Reset()
	kh.hdr = binary.BigEndian.AppendUint32(kh.hdr[:0], uint32(schemaTag))
	kh.hdr = append(kh.hdr, kind...)
	kh.hdr = append(kh.hdr, 0)
	kh.h.Write(kh.hdr)
	kh.h.Write(canonical)
	kh.sum = kh.h.Sum(kh.sum[:0])
	var k cacheKey
	copy(k[:], kh.sum)
	keyHasherPool.Put(kh)
	return k
}

// lruStats is the cache-observability snapshot served on /healthz.
type lruStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	EntryCap  int   `json:"entry_cap"`
	ByteCap   int64 `json:"byte_cap"`
}

// lruCache is a mutex-guarded LRU over encoded result bytes, bounded
// both by entry count and by total stored bytes (a single fig2 sweep
// can be tens of MB, so counting entries alone would let the cache grow
// without bound). Values are immutable once stored (the service never
// mutates a cached response), so get returns the stored slice without
// copying.
type lruCache struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	bytes    int64
	order    *list.List // front = most recently used
	items    map[cacheKey]*list.Element

	hits, misses, evicts int64
}

type lruEntry struct {
	key cacheKey
	val []byte
}

func newLRUCache(max int, maxBytes int64) *lruCache {
	return &lruCache{max: max, maxBytes: maxBytes, order: list.New(), items: make(map[cacheKey]*list.Element)}
}

// get looks k up, counting a hit or a miss.
func (c *lruCache) get(k cacheKey) ([]byte, bool) { return c.lookup(k, true) }

// recheck looks k up again after a wait; the first lookup already
// counted its miss, so only a hit is counted.
func (c *lruCache) recheck(k cacheKey) ([]byte, bool) { return c.lookup(k, false) }

func (c *lruCache) lookup(k cacheKey, countMiss bool) ([]byte, bool) {
	c.mu.Lock()
	var val []byte
	el, ok := c.items[k]
	switch {
	case ok:
		c.hits++
		c.order.MoveToFront(el)
		val = el.Value.(*lruEntry).val
	case countMiss:
		c.misses++
	}
	c.mu.Unlock()
	return val, ok
}

func (c *lruCache) put(k cacheKey, v []byte) {
	// A response so large it would evict most of the cache is served
	// but never stored.
	if int64(len(v)) > c.maxBytes/4 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		// Deterministic encoding means a concurrent writer stored the
		// same bytes; refreshing recency is all that is left to do.
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&lruEntry{key: k, val: v})
	c.bytes += int64(len(v))
	for c.order.Len() > c.max || c.bytes > c.maxBytes {
		back := c.order.Back()
		c.order.Remove(back)
		e := back.Value.(*lruEntry)
		c.bytes -= int64(len(e.val))
		delete(c.items, e.key)
		c.evicts++
	}
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func (c *lruCache) stats() lruStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return lruStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicts,
		Entries:   c.order.Len(),
		Bytes:     c.bytes,
		EntryCap:  c.max,
		ByteCap:   c.maxBytes,
	}
}
