// Package campaign is the shared execution engine for the repository's
// embarrassingly-parallel experiment campaigns (Table I, Fig. 5, the
// anomaly-frequency sweep, the method comparison, and the Fig. 2 period
// grid). It fans a campaign of N independent items out over a pool of
// worker goroutines, collects the results in item order, and reports
// progress or honours an abort signal.
//
// # Determinism
//
// Campaign results must be byte-identical regardless of worker count or
// goroutine scheduling order, so the published numbers stay reproducible
// while the wall-clock time scales with the hardware. The engine
// guarantees this by giving every item its own random-number generator
// whose seed is a pure function of (campaign seed, item index):
//
//	itemSeed = splitmix64(campaignSeed + GOLDEN·(index+1))
//
// where splitmix64 is the finalizer of Steele et al.'s SplitMix
// generator and GOLDEN is 2⁶⁴/φ. Consecutive indices therefore get
// decorrelated, well-spread seeds (a plain seed+index would hand
// math/rand nearly identical lattice streams), and item i draws the
// same random sequence whether it runs first on a single worker or
// last on the sixteenth. Results are written into a pre-sized slice at
// the item's own index, so collection order is item order, not
// completion order.
//
// # Item generators
//
// An item's stream is exactly math/rand's rand.New(rand.NewSource(
// itemSeed)), so the published numbers stay those of the stdlib
// generator, but seeding costs O(1) instead of math/rand's 1,841 LCG
// steps. A Table I item draws only a few dozen numbers, so seeding a
// stdlib generator cost more than the item's task-set generation and
// priority assignment together. NewRand's source computes each register
// word from a power table on the draw that first reads it, and Map
// reseeds a pooled generator per item instead of allocating one.
//
// Anything shared between workers — notably the taskgen coefficient
// cache — must be concurrency-safe; the item function itself must not
// mutate shared state.
package campaign

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrAborted is returned by Map when the Abort channel was closed before
// every item completed. Items finished before the abort keep their
// results; unstarted items are left as zero values.
var ErrAborted = errors.New("campaign: aborted")

// Options configures a campaign run. The zero value runs on all CPUs
// with seed 0 and no hooks.
type Options struct {
	// Workers is the goroutine pool size; 0 or negative means
	// runtime.NumCPU().
	Workers int
	// Seed is the campaign seed every per-item RNG is derived from.
	Seed int64
	// OnProgress, when non-nil, is called after each completed item with
	// the number of items done so far and the total. Calls are serialized
	// by the engine but arrive from worker goroutines in completion
	// order.
	OnProgress func(done, total int)
	// Abort, when non-nil and closed, stops the campaign: workers finish
	// their current item and pick up no more, and Map returns ErrAborted.
	Abort <-chan struct{}
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// ItemSeed derives the deterministic RNG seed of one campaign item from
// the campaign seed. It is exposed so campaigns can also derive stable
// sub-campaign seeds (e.g. one per task-set size, keyed by the size
// itself so a row's numbers do not depend on the order of the Sizes
// list).
func ItemSeed(seed int64, index int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Map runs fn for every item 0..n-1 on a pool of opt.Workers goroutines
// and returns the results in item order. fn receives the item index and
// the item's private deterministic RNG, seeded with ItemSeed(opt.Seed,
// item); it must not retain the RNG past the call, which hands it to
// another item, or touch shared mutable state. The returned error is
// nil unless the run was aborted (ErrAborted).
func Map[T any](n int, opt Options, fn func(item int, rng *rand.Rand) T) ([]T, error) {
	return mapItems(n, opt, func(i int) T {
		rng := itemRands.Get().(*rand.Rand)
		defer itemRands.Put(rng)
		rng.Seed(ItemSeed(opt.Seed, i))
		return fn(i, rng)
	})
}

// MapPlain is Map for item functions that draw no random numbers —
// grid sweeps, timed re-evaluation passes and batches of client-given
// inputs.
func MapPlain[T any](n int, opt Options, fn func(item int) T) ([]T, error) {
	return mapItems(n, opt, fn)
}

func mapItems[T any](n int, opt Options, fn func(item int) T) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	workers := opt.workers()
	if workers > n {
		workers = n
	}

	var (
		next    atomic.Int64
		aborted atomic.Bool
		progMu  sync.Mutex
		done    int
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if opt.Abort != nil {
					select {
					case <-opt.Abort:
						aborted.Store(true)
						return
					default:
					}
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				results[i] = fn(i)
				if opt.OnProgress != nil {
					// The count is incremented under the same mutex that
					// serializes the callback, so deliveries are strictly
					// increasing and the last one reports done == total.
					progMu.Lock()
					done++
					opt.OnProgress(done, n)
					progMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if aborted.Load() {
		return results, ErrAborted
	}
	return results, nil
}
