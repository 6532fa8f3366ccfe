package keyed

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"parsum/internal/accum"
)

// TestEncodeOneMatchesExportAll: the one-entry encoder frames exactly
// the bytes ExportAll gives for a store holding only that key, for
// random keys and batches — empty ones, NaN, ±Inf, subnormals, signed
// zeros, adds and subs.
func TestEncodeOneMatchesExportAll(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	a := accum.NewDense(0)
	for i := 0; i < 500; i++ {
		kb := make([]byte, 1+r.IntN(40))
		for j := range kb {
			kb[j] = byte(r.Uint32())
		}
		key := string(kb)
		if i == 0 {
			key = string(bytes.Repeat([]byte{'k'}, MaxKeyLen))
		}
		xs := make([]float64, r.IntN(70))
		for j := range xs {
			if r.IntN(8) == 0 {
				xs[j] = specials[r.IntN(len(specials))]
			} else {
				xs[j] = (r.Float64() - 0.5) * math.Ldexp(1, r.IntN(2000)-1000)
			}
		}
		sub := r.IntN(2) == 0

		st := New(Options{Partitions: 1 + r.IntN(4)})
		a.Reset()
		if sub {
			st.Sub(key, xs)
			a.SubSlice(xs)
		} else {
			st.Add(key, xs)
			a.AddSlice(xs)
		}
		want, err := st.ExportAll()
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeOne(key, a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d (key %q, %d values, sub=%t): EncodeOne differs from ExportAll\n got %x\nwant %x", i, key, len(xs), sub, got, want)
		}
	}
}

// oneKeyEnvelope is a single-entry envelope of a 64-value batch, the
// unit the proxy ships per write.
func oneKeyEnvelope(tb testing.TB, key string) []byte {
	tb.Helper()
	a := accum.NewDense(0)
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i) * 1.0000001e-3
	}
	a.AddSlice(xs)
	blob, err := EncodeOne(key, a)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// TestImportMergeOneKeyAllocs bounds the allocations of merging a
// one-key envelope into a store that already holds the key: the entry
// accumulator comes from the store's pool and returns to it, and the
// payload decodes straight into its digits, so only the decoded entry
// list is left.
func TestImportMergeOneKeyAllocs(t *testing.T) {
	s := New(Options{Partitions: 4})
	blob := oneKeyEnvelope(t, "key-0042")
	if _, err := s.ImportMerge(blob); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := s.ImportMerge(blob); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("ImportMerge of a one-key envelope: %.1f allocs/op, want at most 1", avg)
	}
}

// BenchmarkImportMerge merges one-key 64-value envelopes, the backend
// half of a proxy write, into a store over 4096 keys that already
// exist.
func BenchmarkImportMerge(b *testing.B) {
	const keys = 4096
	s := New(Options{})
	blobs := make([][]byte, keys)
	for k := range blobs {
		blobs[k] = oneKeyEnvelope(b, fmt.Sprintf("key-%04d", k))
		if _, err := s.ImportMerge(blobs[k]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ImportMerge(blobs[i%keys]); err != nil {
			b.Fatal(err)
		}
	}
}
