//go:build !race

package campaign

import (
	"math/rand"
	"testing"
)

// TestMapItemGeneratorAllocationFree pins the per-item generator on
// Map's path at zero allocations: a campaign of 257 items allocates no
// more than one of a single item. It is built only without the race
// detector, under which sync.Pool drops a random share of Puts.
func TestMapItemGeneratorAllocationFree(t *testing.T) {
	item := func(_ int, rng *rand.Rand) int64 {
		var s int64
		for k := 0; k < 700; k++ {
			s += rng.Int63()
		}
		return s
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Map(n, Options{Workers: 1, Seed: 5}, item); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(257); many != one {
		t.Fatalf("Map allocates %.0f objects for 257 items and %.0f for one", many, one)
	}
}
