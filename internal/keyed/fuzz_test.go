package keyed

import (
	"bytes"
	"math"
	"testing"

	"parsum/internal/oracle"
)

// FuzzKeyedWire feeds arbitrary bytes to the keyed-envelope decoder and
// pins three properties:
//
//  1. ImportMerge never panics and never makes the store lie: on error
//     the store is bit-for-bit unchanged.
//  2. Any blob the decoder accepts re-exports to a blob that decodes to
//     the same snapshot (decode∘encode is the identity on valid states).
//  3. A store built from fuzz-derived (key, value) pairs round-trips
//     through the wire bit-identically to a math/big oracle per key.
//
// The allocation bound for hostile counts is pinned separately by
// TestHostileCountNoHugeAlloc (MemStats accounting is too noisy for a
// fuzz loop).
func FuzzKeyedWire(f *testing.F) {
	// Seed with a valid envelope and its classic mutations so coverage
	// starts at the interesting branches; more seeds live in
	// testdata/fuzz/FuzzKeyedWire.
	s := New(Options{Partitions: 2})
	s.Add("ab", []float64{1.5, -0.25})
	s.Add("c", []float64{math.Inf(1)})
	valid, err := s.ExportAll()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, []byte("k\x00"), float64(1))
	f.Add([]byte{}, []byte{}, float64(0))
	f.Add([]byte{keyedMagic, keyedVersion, 5, 'd', 'e', 'n', 's', 'e', 0},
		[]byte("ab\x00cd"), math.Inf(1))
	f.Add(valid[:len(valid)-3], []byte("\x00"), -0.0)

	f.Fuzz(func(t *testing.T, blob []byte, keyBytes []byte, v float64) {
		// Property 1+2: decode arbitrary bytes into a store with prior
		// state; either it errors and the state is untouched, or it
		// succeeds and the merged state survives an export/import cycle.
		dst := New(Options{Partitions: 3})
		dst.Add("prior", []float64{3, 4})
		before := dst.Snapshot()
		if _, err := dst.ImportMerge(blob); err != nil {
			snapshotsEqual(t, before, dst.Snapshot(), "state after rejected fuzz blob")
		} else {
			re, err := dst.ExportAll()
			if err != nil {
				t.Fatalf("accepted blob but re-export failed: %v", err)
			}
			dst2 := New(Options{Partitions: 1})
			if _, err := dst2.ImportMerge(re); err != nil {
				t.Fatalf("re-exported blob rejected: %v", err)
			}
			snapshotsEqual(t, dst.Snapshot(), dst2.Snapshot(), "re-export cycle")
		}

		// Property 3: build keys from the fuzz bytes (NUL-separated,
		// clamped to MaxKeyLen, empties dropped), give each a value
		// derived from v, and check the wire round trip against the
		// oracle.
		src := New(Options{Partitions: 2})
		want := make(map[string][]float64)
		for i, part := range bytes.Split(keyBytes, []byte{0}) {
			if len(part) == 0 {
				continue
			}
			if len(part) > MaxKeyLen {
				part = part[:MaxKeyLen]
			}
			key := string(part)
			xs := []float64{v, v * float64(i+1), -v}
			src.Add(key, xs)
			want[key] = append(want[key], xs...)
		}
		wire, err := src.ExportAll()
		if err != nil {
			t.Fatalf("export of fuzz-built store failed: %v", err)
		}
		rt := New(Options{Partitions: 5})
		if _, err := rt.ImportMerge(wire); err != nil {
			t.Fatalf("round trip of fuzz-built store rejected: %v", err)
		}
		for key, xs := range want {
			got, ok := rt.Sum(key)
			if !ok {
				t.Fatalf("key %q lost in round trip", key)
			}
			ref := oracle.Sum(xs)
			if math.IsNaN(ref) {
				if !math.IsNaN(got) {
					t.Fatalf("key %q = %v, oracle NaN", key, got)
				}
				continue
			}
			if math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("key %q = %x, oracle %x", key,
					math.Float64bits(got), math.Float64bits(ref))
			}
		}
	})
}
