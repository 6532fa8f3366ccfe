package keyed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parsum/internal/core"
)

// TestCRDTConvergence is the keyed store's central claim: per-key exact
// partials form a state-based CRDT, so two replicas that exchange their
// exported partials — in different orders, split into different range
// pieces — converge to bit-identical per-key sums, specials included.
// The algebra doing the work: exact merge is commutative and
// associative, every partial is delivered exactly once, and rounding
// happens only at the read. Each subtest checks the converged bits
// against one exact engine's sequential sum (see refEngines).
func TestCRDTConvergence(t *testing.T) {
	for _, eng := range refEngines {
		t.Run(eng, func(t *testing.T) {
			r := rand.New(rand.NewSource(11))
			// Two replicas ingest overlapping key sets with disjoint
			// multisets, including non-finite and cancelling values.
			localA := testValues(r, 12, 15)
			localB := testValues(rand.New(rand.NewSource(22)), 12, 15)
			localA["inf"] = []float64{math.Inf(1), 1e300}
			localB["inf"] = []float64{math.Inf(1), -1e300}
			localA["nan"] = []float64{math.NaN()}
			localB["nan"] = []float64{2.5}
			localA["inf-cancel"] = []float64{math.Inf(1)}
			localB["inf-cancel"] = []float64{math.Inf(-1)}
			localA["only-a"] = []float64{1e-308, 1e-308}
			localB["only-b"] = []float64{math.MaxFloat64, -math.MaxFloat64 / 2}

			a := New(Options{Partitions: 3})
			b := New(Options{Partitions: 5})
			for k, xs := range localA {
				a.Add(k, xs)
			}
			for k, xs := range localB {
				b.Add(k, xs)
			}

			// Each replica exports its state split at a different key
			// boundary, and each imports the peer's pieces in the
			// opposite order.
			a1, err := a.ExportRange("", "key-006")
			if err != nil {
				t.Fatal(err)
			}
			a2, err := a.ExportRange("key-006", "")
			if err != nil {
				t.Fatal(err)
			}
			b1, err := b.ExportRange("", "n")
			if err != nil {
				t.Fatal(err)
			}
			b2, err := b.ExportRange("n", "")
			if err != nil {
				t.Fatal(err)
			}
			for _, blob := range [][]byte{b2, b1} { // A gets B's pieces high-then-low
				if _, err := a.ImportMerge(blob); err != nil {
					t.Fatal(err)
				}
			}
			for _, blob := range [][]byte{a1, a2} { // B gets A's pieces low-then-high
				if _, err := b.ImportMerge(blob); err != nil {
					t.Fatal(err)
				}
			}

			// Both replicas now hold the union; their snapshots must be
			// element- and bit-identical, and match the reference
			// engine's sum of the union multiset per key.
			snapA, snapB := a.Snapshot(), b.Snapshot()
			if len(snapA) != len(snapB) {
				t.Fatalf("replica key counts differ: %d vs %d", len(snapA), len(snapB))
			}
			union := make(map[string][]float64)
			for k, xs := range localA {
				union[k] = append(union[k], xs...)
			}
			for k, xs := range localB {
				union[k] = append(union[k], xs...)
			}
			for i := range snapA {
				if snapA[i].Key != snapB[i].Key {
					t.Fatalf("key order diverged at %d: %q vs %q", i, snapA[i].Key, snapB[i].Key)
				}
				ab, bb := math.Float64bits(snapA[i].Sum), math.Float64bits(snapB[i].Sum)
				if ab != bb {
					t.Errorf("key %q: replicas diverged: %x vs %x", snapA[i].Key, ab, bb)
				}
				want := core.SumEngine(eng, union[snapA[i].Key])
				got := snapA[i].Sum
				if math.IsNaN(want) {
					if !math.IsNaN(got) {
						t.Errorf("key %q = %v, %s sum NaN", snapA[i].Key, got, eng)
					}
					continue
				}
				if ab != math.Float64bits(want) {
					t.Errorf("key %q = %x, %s sum %x", snapA[i].Key, ab, eng, math.Float64bits(want))
				}
			}

			// A third replica that receives both states in yet another
			// order (whole-store envelopes, B first) lands on the same
			// bits — associativity across envelope granularities. Note
			// the exports must predate the exchange; re-exporting now
			// would double-count. Use fresh exports of the disjoint
			// locals via a rebuilt pair.
			fa, fb := New(Options{Partitions: 2}), New(Options{Partitions: 2})
			for k, xs := range localA {
				fa.Add(k, xs)
			}
			for k, xs := range localB {
				fb.Add(k, xs)
			}
			ea, err := fa.ExportAll()
			if err != nil {
				t.Fatal(err)
			}
			eb, err := fb.ExportAll()
			if err != nil {
				t.Fatal(err)
			}
			c := New(Options{Partitions: 7})
			if _, err := c.ImportMerge(eb); err != nil {
				t.Fatal(err)
			}
			if _, err := c.ImportMerge(ea); err != nil {
				t.Fatal(err)
			}
			snapC := c.Snapshot()
			if len(snapC) != len(snapA) {
				t.Fatalf("third replica key count %d, want %d", len(snapC), len(snapA))
			}
			for i := range snapC {
				if snapC[i].Key != snapA[i].Key ||
					math.Float64bits(snapC[i].Sum) != math.Float64bits(snapA[i].Sum) {
					t.Errorf("third replica diverged at %q", snapC[i].Key)
				}
			}
		})
	}
}

// TestConvergenceUnderConcurrentExchange drives the anti-entropy loop
// while ingestion continues: exports taken mid-ingestion are exact
// partials of a prefix, and delivering each exactly once still converges
// both replicas on the final bits.
func TestConvergenceUnderConcurrentExchange(t *testing.T) {
	a := New(Options{Partitions: 4})
	b := New(Options{Partitions: 4})
	r := rand.New(rand.NewSource(33))
	var historyA, historyB []Batch
	for round := 0; round < 5; round++ {
		// Each replica ingests a burst, then ships a delta to the peer.
		// Deltas here are "everything so far" exports into fresh peers,
		// modeling snapshot-shipping with exactly-once delivery: the
		// receiving side resets its copy of the peer state first.
		burst := func(history []Batch) []Batch {
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", r.Intn(9))
				xs := []float64{math.Ldexp(r.Float64()*2-1, r.Intn(400)-200)}
				history = append(history, Batch{Key: key, Values: xs})
			}
			return history
		}
		historyA = burst(historyA)
		historyB = burst(historyB)
		a.Reset()
		b.Reset()
		a.AddKeyedBatches(historyA)
		b.AddKeyedBatches(historyB)
		ea, err := a.ExportAll()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := b.ExportAll()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.ImportMerge(eb); err != nil {
			t.Fatal(err)
		}
		if _, err := b.ImportMerge(ea); err != nil {
			t.Fatal(err)
		}
		snapA, snapB := a.Snapshot(), b.Snapshot()
		if len(snapA) != len(snapB) {
			t.Fatalf("round %d: key counts differ", round)
		}
		for i := range snapA {
			if snapA[i].Key != snapB[i].Key ||
				math.Float64bits(snapA[i].Sum) != math.Float64bits(snapB[i].Sum) {
				t.Fatalf("round %d: replicas diverged at %q", round, snapA[i].Key)
			}
		}
	}
}
