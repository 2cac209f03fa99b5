package campaign

import (
	"math/rand"
	"sync"
)

// math/rand's NewSource is the Mitchell–Reeds additive lagged-Fibonacci
// generator: a 607-word register, read at the feed and at a tap 273
// words behind it, seeded from a Lehmer LCG modulo the Mersenne prime
// 2³¹−1. The constants and the seed reduction below are its own.
const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap // feed index right after a seed
	rngMask  = 1<<63 - 1
	lcgMod   = 1<<31 - 1
	lcgMul   = 48271
	zeroSeed = 89482311 // math/rand's replacement for a zero seed
)

// lcgPow[k] is 48271ᵏ mod (2³¹−1). math/rand's Seed steps the LCG
// x[k+1] = 48271·x[k] from x[0] = seed and builds register word i from
// x[21+3i], x[22+3i] and x[23+3i], so x[k] = lcgPow[k]·seed mod (2³¹−1)
// lets any one word be computed without the 1,841 steps before it.
var lcgPow = func() (p [3*rngLen + 21]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = mulMod(p[k-1], lcgMul)
	}
	return p
}()

// rngCooked is math/rand's rngCooked table, the constants XORed into
// every seeded register word. Rather than copy it, it is recovered from
// the first 607 outputs of rand.NewSource(1): draw k adds the tap word
// to the feed word f(k) = (334−k) mod 607 and stores the sum there, so
// draws 274…607 give the seeded words they feed as out[k]−out[k−273]
// (their taps were fed by an earlier draw), and draws 1…273, whose taps
// are still the seeded words found first, give the rest.
var rngCooked = func() (cooked [rngLen]int64) {
	ref := rand.New(rand.NewSource(1))
	var out [rngLen + 1]int64 // out[k] is draw k, counted from 1
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(ref.Uint64())
	}
	feed := func(k int) int { return (rngFeed - k + rngLen) % rngLen }
	var vec [rngLen]int64 // seed 1's register
	for k := rngTap + 1; k <= rngLen; k++ {
		vec[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[feed(k)] = out[k] - vec[rngLen-k]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lcgWord(1, i)
	}
	return cooked
}()

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹−1, reducing with the
// Mersenne identity 2³¹ ≡ 1 instead of a division. It equals math/rand's
// seedrand (Schrage's method) step for step.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lcgMod + p>>31
	return min(r, r-lcgMod)
}

// lcgWord is register word i for the reduced seed, before rngCooked.
func lcgWord(seed uint64, i int) int64 {
	k := 21 + 3*i
	return int64(mulMod(lcgPow[k], seed)<<40 ^ mulMod(lcgPow[k+1], seed)<<20 ^ mulMod(lcgPow[k+2], seed))
}

// lazySource is a rand.Source64 whose outputs equal math/rand's
// NewSource for every seed, but whose Seed costs O(1): it records the
// reduced seed and computes each register word on the draw that first
// reads it. Draw k (from 1) feeds word 334−k, seeded until then, for
// k ≤ 334, and taps word 607−k, seeded until then, for k ≤ 273; every
// later read finds a word an earlier draw wrote. So the first 334 draws
// seed what they read, and from draw 335 on Uint64 is math/rand's own
// step plus one compare. A word is computed at most once per seed.
type lazySource struct {
	tap, feed int
	unseeded  int    // draws left that read a word not yet computed
	seed      uint64 // the reduced seed, in [1, 2³¹−2]
	vec       [rngLen]int64
}

// Seed resets the generator to math/rand's state for seed.
func (s *lazySource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.tap, s.feed, s.unseeded = 0, rngFeed, rngFeed
}

func (s *lazySource) Int63() int64 {
	if s.unseeded > 0 {
		s.seedNext()
	}
	return int64(s.step() & rngMask)
}

func (s *lazySource) Uint64() uint64 {
	if s.unseeded > 0 {
		s.seedNext()
	}
	return s.step()
}

// step is math/rand's draw: move feed and tap back one word, add the
// tap word into the feed word and return it. It inlines into Int63 and
// Uint64, so a draw costs one call, as math/rand's does.
func (s *lazySource) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// seedNext computes the words the next step reads for the first time:
// the feed word, and the tap word while the tap is still in the part of
// the register no draw has fed. During the first 334 draws the feed
// does not wrap.
func (s *lazySource) seedNext() {
	s.unseeded--
	feed, tap := s.feed-1, s.tap-1
	if tap < 0 {
		tap += rngLen
	}
	s.vec[feed] = lcgWord(s.seed, feed) ^ rngCooked[feed]
	if tap >= rngFeed {
		s.vec[tap] = lcgWord(s.seed, tap) ^ rngCooked[tap]
	}
}

// NewRand returns a generator whose every output, for every method,
// equals that of rand.New(rand.NewSource(seed)), at O(1) seeding cost.
// It is the program's constructor of seeded generators; reseeding the
// result with its Seed method is as cheap and allocates nothing.
func NewRand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}

// itemRands holds the generators Map reseeds for each item.
var itemRands = sync.Pool{New: func() any { return NewRand(0) }}
