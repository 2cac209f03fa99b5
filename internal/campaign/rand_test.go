package campaign

import (
	"math"
	"math/rand"
	"testing"
)

// streamSeeds are the seeds the stream-equality test covers: the edges
// of math/rand's seed reduction (zero, its replacement value, ±(2³¹−1)
// and a multiple of it that both reduce to zero, the int64 extremes) and
// 2,000 splitmix-spread campaign item seeds.
func streamSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, -m, 2 * m, 89482311, math.MinInt64, math.MaxInt64}
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, ItemSeed(20170327, i))
	}
	return seeds
}

// intnBounds reach both of Intn's branches: 31-bit bounds go through
// Int31n, larger ones through Int63n.
var intnBounds = []int{1, 2, 3, 7, 10, 1000, 1 << 20, 1<<31 - 1, 1 << 31, 1<<40 + 3, math.MaxInt64}

// requireSameStream draws from got and want through every rand.Rand
// method the repository uses and fails at the first difference. The
// 1,300 raw draws cross draw 273 (the last that seeds a tap word), 334
// (the last that seeds a feed word) and 607 (one full register).
func requireSameStream(t *testing.T, seed int64, got, want *rand.Rand) {
	t.Helper()
	for k := 0; k < 1300; k++ {
		var g, w uint64
		if k%2 == 0 {
			g, w = got.Uint64(), want.Uint64()
		} else {
			g, w = uint64(got.Int63()), uint64(want.Int63())
		}
		if g != w {
			t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, k+1, g, w)
		}
	}
	for k := 0; k < 20; k++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d: Float64 #%d = %v, math/rand gives %v", seed, k, g, w)
		}
		if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
			t.Fatalf("seed %d: NormFloat64 #%d = %v, math/rand gives %v", seed, k, g, w)
		}
		if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
			t.Fatalf("seed %d: ExpFloat64 #%d = %v, math/rand gives %v", seed, k, g, w)
		}
		n := intnBounds[k%len(intnBounds)]
		if g, w := got.Intn(n), want.Intn(n); g != w {
			t.Fatalf("seed %d: Intn(%d) = %d, math/rand gives %d", seed, n, g, w)
		}
	}
	gp, wp := got.Perm(17), want.Perm(17)
	for i := range gp {
		if gp[i] != wp[i] {
			t.Fatalf("seed %d: Perm(17) = %v, math/rand gives %v", seed, gp, wp)
		}
	}
	gs, ws := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
	want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("seed %d: Shuffle = %v, math/rand gives %v", seed, gs, ws)
		}
	}
}

// TestNewRandMatchesMathRand pins NewRand to math/rand's own generator,
// fresh and reseeded mid-stream, so a change to either side's algorithm
// fails here rather than in a golden diff.
func TestNewRandMatchesMathRand(t *testing.T) {
	seeds := streamSeeds()
	reused := NewRand(0)
	for i, seed := range seeds {
		requireSameStream(t, seed, NewRand(seed), rand.New(rand.NewSource(seed)))
		// Reseed a generator left mid-stream by the previous seed; every
		// third time, before it has seeded its whole register.
		if i%3 == 0 {
			reused.Int63()
		}
		reused.Seed(seed)
		requireSameStream(t, seed, reused, rand.New(rand.NewSource(seed)))
	}
}

// TestMapPooledGeneratorsMatchMathRand runs items that draw 0, 1, 300,
// 700 and 2,000 numbers, so each pooled generator is reseeded in every
// state from untouched to fully cycled, and requires every item's draws
// to equal a fresh math/rand generator's for its item seed, at one
// worker and at eight.
func TestMapPooledGeneratorsMatchMathRand(t *testing.T) {
	const seed = 11
	draws := []int{0, 1, 300, 700, 2000}
	item := func(i int, rng *rand.Rand) []int64 {
		out := make([]int64, draws[i%len(draws)])
		for k := range out {
			out[k] = rng.Int63()
		}
		return out
	}
	one, err := Map(60, Options{Workers: 1, Seed: seed}, item)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Map(60, Options{Workers: 8, Seed: seed}, item)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		ref := rand.New(rand.NewSource(ItemSeed(seed, i)))
		for k, v := range one[i] {
			if w := ref.Int63(); v != w || eight[i][k] != w {
				t.Fatalf("item %d draw %d: workers=1 %d, workers=8 %d, math/rand %d", i, k, v, eight[i][k], w)
			}
		}
	}
}

var benchSink float64

// BenchmarkNewRand times what one campaign item pays for its generator:
// a seed and 50 draws, about what a Table I item draws. "pooled" is
// Map's per-item path, "new" a fresh NewRand, and "math-rand" the stdlib
// generator the streams equal.
func BenchmarkNewRand(b *testing.B) {
	draw50 := func(rng *rand.Rand) {
		for k := 0; k < 50; k++ {
			benchSink += rng.Float64()
		}
	}
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := itemRands.Get().(*rand.Rand)
			rng.Seed(ItemSeed(1, i))
			draw50(rng)
			itemRands.Put(rng)
		}
	})
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			draw50(NewRand(ItemSeed(1, i)))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			draw50(rand.New(rand.NewSource(ItemSeed(1, i))))
		}
	})
}
