package parsum_test

import (
	"bytes"
	"math"
	"testing"

	"parsum"
)

// TestKeyedPublicSurface exercises the exported wrapper end to end: per-
// key sums bit-identical to parsum.Sum, range rebalance, and the binary
// and per-key-partial exchange paths.
func TestKeyedPublicSurface(t *testing.T) {
	k, err := parsum.NewKeyed(parsum.KeyedOptions{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if k.Partitions() != 3 {
		t.Fatalf("partitions=%d, want 3", k.Partitions())
	}
	data := map[string][]float64{
		"alpha": {1e300, 1, -1e300},
		"beta":  {math.Inf(1), -2.5},
		"gamma": {5e-324, 5e-324, -5e-324},
	}
	for key, xs := range data {
		k.Add(key, xs)
	}
	k.Sub("alpha", []float64{1e-30})
	k.Add("alpha", []float64{1e-30})
	for key, xs := range data {
		got, ok := k.Sum(key)
		if !ok {
			t.Fatalf("key %q missing", key)
		}
		if want := parsum.Sum(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Sum(%q) = %x, want %x", key, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if got := k.Keys(); len(got) != 3 || got[0] != "alpha" {
		t.Fatalf("Keys = %v", got)
	}
	if got := k.KeysRange("b", "c"); len(got) != 1 || got[0] != "beta" {
		t.Fatalf("KeysRange(b, c) = %v, want [beta]", got)
	}
	all, err := k.ExportAll()
	if err != nil {
		t.Fatal(err)
	}

	// Binary exchange into a second store with a different layout.
	blob, err := k.ExportRange("", "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, all) {
		t.Fatal("ExportRange over every key differs from ExportAll")
	}
	k2, err := parsum.NewKeyed(parsum.KeyedOptions{Partitions: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := k2.ImportMerge(blob); err != nil {
		t.Fatal(err)
	}
	a, b := k.Snapshot(), k2.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("snapshots differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i].Sum) && math.IsNaN(b[i].Sum) && a[i].Key == b[i].Key) {
			t.Errorf("snapshot[%d]: %+v vs %+v", i, a[i], b[i])
		}
	}

	// Per-key partials merge through the batch-of-envelopes path.
	ps, err := k.ExportPartials("b", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("ExportPartials = %d entries, want 2", len(ps))
	}
	k3, err := parsum.NewKeyed(parsum.KeyedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k3.MergeKeyPartials(ps); err != nil {
		t.Fatal(err)
	}
	if v, ok := k3.Sum("beta"); !ok || !math.IsInf(v, 1) {
		t.Errorf("merged beta = (%v, %v), want +Inf", v, ok)
	}

	// Rebalance: move [b, h) out of k.
	if n := k.DeleteRange("b", "h"); n != 2 {
		t.Errorf("DeleteRange = %d, want 2", n)
	}
	if k.Len() != 1 {
		t.Errorf("Len after rebalance = %d, want 1", k.Len())
	}
	k.Reset()
	if k.Len() != 0 {
		t.Errorf("Len after Reset = %d", k.Len())
	}

	// Grouped batch ingestion and store merge.
	k.AddKeyedBatches([]parsum.KeyedBatch{{Key: "m", Values: []float64{1, 2}}, {Key: "n", Values: []float64{3}}})
	k.SubKeyedBatches([]parsum.KeyedBatch{{Key: "m", Values: []float64{2}}})
	k3.Merge(k)
	if v, ok := k3.Sum("m"); !ok || v != 1 {
		t.Errorf("merged m = (%v, %v), want 1", v, ok)
	}

	// A well-formed partial of any engine but dense is malformed input:
	// rejected, the store unchanged.
	sp, err := parsum.NewAccumulatorEngine("sparse")
	if err != nil {
		t.Fatal(err)
	}
	sp.Add(7)
	spBlob, err := sp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	before := k3.Snapshot()
	if err := k3.MergeKeyPartials([]parsum.KeyPartial{{Key: "m", Blob: spBlob}}); err == nil {
		t.Error("sparse key partial accepted")
	}
	after := k3.Snapshot()
	if len(after) != len(before) {
		t.Fatalf("rejected partial changed the key set: %d -> %d keys", len(before), len(after))
	}
	for i := range before {
		if before[i].Key != after[i].Key || math.Float64bits(before[i].Sum) != math.Float64bits(after[i].Sum) {
			t.Errorf("rejected partial changed %q: %v -> %v", before[i].Key, before[i].Sum, after[i].Sum)
		}
	}
}
