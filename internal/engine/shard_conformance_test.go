// Conformance for the sharded ingestion layer: Sharded.Sum/Snapshot must
// be bit-identical to the sequential oracle across shard counts,
// randomized writer interleavings, and mid-ingestion snapshots, for every
// engine capable of backing it. Run with -race in CI: the assertions pin
// determinism, the detector pins the handoff protocol.
package engine_test

import (
	"math/rand"
	"sync"
	"testing"

	"parsum/internal/engine"
	"parsum/internal/gen"
	"parsum/internal/oracle"
	"parsum/internal/shard"
)

// TestShardedBitIdenticalAcrossShardCounts: for each engine that could
// back sharded ingestion (Streaming and DeterministicParallel), every
// shard count in {1,2,4,8} and a seeded-random writer interleaving over
// mutex-guarded per-shard accumulators must reproduce the oracle's bits,
// including on adversarial inputs. The dense subtest drives shard.Sharded
// itself, the accumulator behind the service stack.
func TestShardedBitIdenticalAcrossShardCounts(t *testing.T) {
	for _, e := range engine.All() {
		if caps := e.Caps(); !caps.Streaming || !caps.DeterministicParallel {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			for _, tc := range adversarialCases() {
				want := oracle.Sum(tc.xs)
				for _, shards := range []int{1, 2, 4, 8} {
					add, sum := stripedAccumulator(e, shards)
					if e.Name() == "dense" {
						s := shard.New(shard.Options{Shards: shards})
						add = func(_ int, x float64) { s.Add(x) }
						sum = s.Sum
					}
					// Randomized interleaving: a seeded shuffle deals the
					// input to 2×shards writers in uneven runs.
					rng := rand.New(rand.NewSource(int64(shards)*1000 + int64(len(tc.xs))))
					order := rng.Perm(len(tc.xs))
					writers := 2 * shards
					var wg sync.WaitGroup
					for w := 0; w < writers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							for j := w; j < len(order); j += writers {
								add(w, tc.xs[order[j]])
							}
						}(w)
					}
					wg.Wait()
					if got := sum(); !bitEqual(got, want) {
						t.Fatalf("%s shards=%d: Sum=%g oracle=%g", tc.name, shards, got, want)
					}
				}
			}
		})
	}
}

// stripedAccumulator is sharded ingestion over e's own accumulators:
// writer w adds into stripe w mod shards under that stripe's lock, and
// sum merges every stripe into a fresh accumulator and rounds once.
func stripedAccumulator(e engine.Engine, shards int) (add func(w int, x float64), sum func() float64) {
	mu := make([]sync.Mutex, shards)
	parts := make([]engine.Accumulator, shards)
	for i := range parts {
		parts[i] = e.NewAccumulator()
	}
	add = func(w int, x float64) {
		i := w % shards
		mu[i].Lock()
		parts[i].Add(x)
		mu[i].Unlock()
	}
	sum = func() float64 {
		total := e.NewAccumulator()
		for _, p := range parts {
			total.Merge(p)
		}
		return total.Round()
	}
	return add, sum
}

// TestShardedStressMidIngestionSnapshots is the race-enabled stress test:
// writer goroutines ingest in phases while a snapshotter races against
// them continuously; at every phase boundary (ingestion paused but far
// from finished) the snapshot must be bit-identical to the sequential
// oracle of exactly the data ingested so far. The racing snapshots make
// the detector sweep the handoff/recycle protocol under load.
func TestShardedStressMidIngestionSnapshots(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.SumZero, N: 40000, Delta: 1500, Seed: 77}).Slice()
	s := shard.New(shard.Options{Shards: 4})

	stop := make(chan struct{})
	var snapWg sync.WaitGroup
	snapWg.Add(1)
	go func() { // racing snapshotter: result unused, safety checked by -race
		defer snapWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Snapshot()
			}
		}
	}()

	const phases, writers = 8, 6
	per := len(xs) / phases
	for p := 0; p < phases; p++ {
		lo, hi := p*per, (p+1)*per
		if p == phases-1 {
			hi = len(xs)
		}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := lo + w; i < hi; i += writers {
					if i%3 == 0 {
						s.AddBatch(xs[i : i+1])
					} else {
						s.Add(xs[i])
					}
				}
			}(w)
		}
		wg.Wait()
		if got, want := s.Snapshot(), oracle.Sum(xs[:hi]); !bitEqual(got, want) {
			t.Fatalf("phase %d (n=%d): snapshot=%g oracle=%g", p, hi, got, want)
		}
	}
	close(stop)
	snapWg.Wait()
	// Fully cancelling input: the completed ingestion sums to exactly +0.
	if got := s.Sum(); got != 0 {
		t.Fatalf("final Sum=%g, want 0", got)
	}
}
