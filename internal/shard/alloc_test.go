package shard

import (
	"testing"

	"parsum/internal/gen"
)

// TestAddBatchZeroAlloc asserts the high-throughput ingestion call is
// allocation-free in the steady state: the shard token recycles through
// its pool and the block-structured AddSlice runs on the shard
// accumulator's existing digit array.
func TestAddBatchZeroAlloc(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 4096, Delta: 2000, Seed: 11}).Slice()
	s := New(Options{Shards: 2})
	if avg := testing.AllocsPerRun(50, func() { s.AddBatch(xs) }); avg != 0 {
		t.Fatalf("Sharded.AddBatch allocates %.1f times per call, want 0", avg)
	}
	w := s.Writer()
	if avg := testing.AllocsPerRun(50, func() { w.AddBatch(xs) }); avg != 0 {
		t.Fatalf("ShardedWriter.AddBatch allocates %.1f times per call, want 0", avg)
	}
}
