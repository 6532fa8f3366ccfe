package shard

import (
	"math"
	"sync"
	"testing"

	"parsum/internal/core"
	"parsum/internal/gen"
)

// TestSubRestoresSnapshotBits: ingesting a∪b then deleting b — through
// every combination of Sub/SubBatch on the striped and writer-pinned paths
// — snapshots bit-identically to ingesting a alone.
func TestSubRestoresSnapshotBits(t *testing.T) {
	a := dataset(t, gen.Random, 3000, 51)
	b := dataset(t, gen.SumZero, 2000, 52)
	b = append(b, math.Inf(1), math.NaN(), math.Inf(-1))
	want := core.Sum(a)
	for _, shards := range []int{1, 4} {
		s := New(Options{Shards: shards})
		s.AddBatch(a)
		s.AddBatch(b[:len(b)/2])
		for _, x := range b[len(b)/2:] {
			s.Add(x)
		}
		// Delete b back out through all three deletion surfaces.
		third := len(b) / 3
		s.SubBatch(b[:third])
		for _, x := range b[third : 2*third] {
			s.Sub(x)
		}
		w := s.Writer()
		w.SubBatch(b[2*third : 2*third+(len(b)-2*third)/2])
		for _, x := range b[2*third+(len(b)-2*third)/2:] {
			w.Sub(x)
		}
		if got := s.Sum(); !bitEqual(got, want) {
			t.Fatalf("shards=%d: %x != %x", shards,
				math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestSubConcurrentWithSnapshots races adders, deleters, and snapshotters;
// the quiesced sum must be the sequential sum of the surviving multiset.
func TestSubConcurrentWithSnapshots(t *testing.T) {
	keep := dataset(t, gen.Anderson, 4000, 61)
	churn := dataset(t, gen.Random, 4000, 62)
	s := New(Options{Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(keep); i += 4 {
				s.Add(keep[i])
			}
			// Churn: add then fully delete a slice of values.
			var mine []float64
			for i := g; i < len(churn); i += 4 {
				mine = append(mine, churn[i])
			}
			s.AddBatch(mine)
			s.SubBatch(mine)
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = s.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	want := core.Sum(keep)
	if got := s.Sum(); !bitEqual(got, want) {
		t.Fatalf("churned sum %x != %x", math.Float64bits(got), math.Float64bits(want))
	}
}

// TestSubBatchEmpty: deleting nothing is a no-op, not a lock dance.
func TestSubBatchEmpty(t *testing.T) {
	s := New(Options{Shards: 2})
	s.Add(2.5)
	s.SubBatch(nil)
	if got := s.Sum(); got != 2.5 {
		t.Fatalf("SubBatch(nil) changed sum: %g", got)
	}
}
