package keyed

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"parsum/internal/accum"
	"parsum/internal/core"
	"parsum/internal/engine"
)

func snapshotsEqual(t *testing.T, a, b []KeySum, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: snapshot sizes differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || math.Float64bits(a[i].Sum) != math.Float64bits(b[i].Sum) {
			t.Errorf("%s: entry %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	for _, eng := range refEngines {
		t.Run(eng, func(t *testing.T) {
			src := New(Options{Partitions: 4})
			data := testValues(rand.New(rand.NewSource(7)), 15, 25)
			for key, xs := range data {
				src.Add(key, xs)
			}
			src.Add("specials", []float64{math.Inf(1), 1, math.Inf(1)})

			blob, err := src.ExportAll()
			if err != nil {
				t.Fatal(err)
			}
			dst := New(Options{Partitions: 7}) // different partition count on purpose
			if _, err := dst.ImportMerge(blob); err != nil {
				t.Fatal(err)
			}
			snapshotsEqual(t, src.Snapshot(), dst.Snapshot(), "round trip")
			for key, xs := range data {
				got, ok := dst.Sum(key)
				if !ok {
					t.Fatalf("imported key %q missing", key)
				}
				if want := core.SumEngine(eng, xs); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("imported Sum(%q) = %x, %s sum %x", key, math.Float64bits(got), eng, math.Float64bits(want))
				}
			}
			if v, _ := dst.Sum("specials"); !math.IsInf(v, 1) {
				t.Errorf("specials key = %v, want +Inf", v)
			}

			// The export is a deterministic function of the state: two
			// exports of the same store are byte-identical.
			blob2, err := src.ExportAll()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Error("two exports of unchanged state differ")
			}
		})
	}
}

func TestExportRangeSelectsAndRebalances(t *testing.T) {
	src := New(Options{Partitions: 4})
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		src.Add(k, []float64{float64(k[0])})
	}
	blob, err := src.ExportRange("b", "d")
	if err != nil {
		t.Fatal(err)
	}
	dst := New(Options{Partitions: 2})
	if n, err := dst.ImportMerge(blob); err != nil || n != 2 {
		t.Fatalf("ImportMerge = (%d, %v), want (2, nil)", n, err)
	}
	if got := dst.Keys(); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("imported range keys = %v, want [b c]", got)
	}
	// The rebalance pattern: export a range, ship it, delete it locally.
	// No key is lost or double-counted.
	if n := src.DeleteRange("b", "d"); n != 2 {
		t.Fatalf("DeleteRange removed %d, want 2", n)
	}
	total := append(src.Snapshot(), dst.Snapshot()...)
	if len(total) != 5 {
		t.Fatalf("after rebalance the union has %d keys, want 5", len(total))
	}

	// An empty range is a valid, importable envelope.
	empty, err := src.ExportRange("zz", "")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := dst.ImportMerge(empty); err != nil || n != 0 {
		t.Errorf("empty-range envelope: ImportMerge = (%d, %v), want (0, nil)", n, err)
	}
}

// TestImportMergeRejectsEngineMismatchUntouched: a store holds only dense
// accumulators, so a well-formed envelope of any other engine — and a
// dense one at a width the store does not run — is malformed input:
// rejected with ErrWireInvalid, the store bit-for-bit unchanged.
func TestImportMergeRejectsEngineMismatchUntouched(t *testing.T) {
	dst := New(Options{Partitions: 2})
	dst.Add("k", []float64{10})
	before := dst.Snapshot()
	for _, name := range []string{"sparse", "small", "large"} {
		acc := engine.MustGet(name).NewAccumulator()
		acc.AddSlice([]float64{1, 2})
		blob := foreignEnvelope(t, name, "k", acc.(encoding.BinaryMarshaler))
		if _, err := dst.ImportMerge(blob); !errors.Is(err, ErrWireInvalid) {
			t.Fatalf("%s envelope: err = %v, want ErrWireInvalid", name, err)
		}
	}
	narrow := accum.NewDense(16)
	narrow.Add(1)
	if _, err := dst.ImportMerge(foreignEnvelope(t, "dense", "k", narrow)); err == nil {
		t.Fatal("dense envelope at width 16 accepted")
	}
	snapshotsEqual(t, before, dst.Snapshot(), "state after rejected envelopes")
}

// foreignEnvelope builds a well-formed single-entry keyed envelope tagged
// with engine name whose payload is m's own encoding — the envelope a
// store backed by another representation would export.
func foreignEnvelope(t *testing.T, name, key string, m encoding.BinaryMarshaler) []byte {
	t.Helper()
	payload, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte{keyedMagic, keyedVersion, byte(len(name))}, name...)
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// validEnvelope builds a well-formed single-entry dense envelope to
// mutate in the malformed-payload table.
func validEnvelope(t *testing.T) []byte {
	t.Helper()
	s := New(Options{Partitions: 1})
	s.Add("ab", []float64{1.5, -0.25})
	blob, err := s.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestMalformedEnvelopesRejectedStateUntouched(t *testing.T) {
	valid := validEnvelope(t)
	mangle := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte{keyedMagic, keyedVersion}},
		{"bad magic", mangle(func(b []byte) []byte { b[0] = 0xC7; return b })},
		{"bad version", mangle(func(b []byte) []byte { b[1] = 9; return b })},
		{"empty engine name", []byte{keyedMagic, keyedVersion, 0}},
		{"engine name truncated", []byte{keyedMagic, keyedVersion, 10, 'd'}},
		{"unknown engine", append([]byte{keyedMagic, keyedVersion, 2}, "zz"...)},
		{"count missing", append([]byte{keyedMagic, keyedVersion, 5}, "dense"...)},
		{"count varint overflow", append(append([]byte{keyedMagic, keyedVersion, 5}, "dense"...),
			0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)},
		{"hostile count", append(append([]byte{keyedMagic, keyedVersion, 5}, "dense"...),
			0x80, 0x80, 0x80, 0x08, 1, 'k')}, // claims 2^24 entries
		{"zero key length", append(append([]byte{keyedMagic, keyedVersion, 5}, "dense"...),
			1, 0)},
		{"oversized key length", append(append([]byte{keyedMagic, keyedVersion, 5}, "dense"...),
			1, 0x81, 0x80, 0x01)}, // keyLen 16385 > MaxKeyLen
		{"key truncated", append(append([]byte{keyedMagic, keyedVersion, 5}, "dense"...),
			1, 5, 'k', 'e')},
		{"payload length missing", append(append([]byte{keyedMagic, keyedVersion, 5}, "dense"...),
			1, 1, 'k')},
		{"payload truncated", append(append([]byte{keyedMagic, keyedVersion, 5}, "dense"...),
			1, 1, 'k', 200, 0xA5)},
		{"bad inner payload", append(append([]byte{keyedMagic, keyedVersion, 5}, "dense"...),
			1, 1, 'k', 3, 1, 2, 3)},
		{"trailing bytes", mangle(func(b []byte) []byte { return append(b, 0xEE) })},
		{"count understates entries", mangle(func(b []byte) []byte {
			b[3+len("dense")] = 0 // claim zero entries, leave the entry bytes
			return b
		})},
	}
	// Truncation at every prefix must error, never panic.
	for i := 0; i < len(valid); i++ {
		cases = append(cases, struct {
			name string
			data []byte
		}{fmt.Sprintf("prefix-%d", i), valid[:i]})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{Partitions: 2})
			s.Add("existing", []float64{42})
			before := s.Snapshot()
			if _, err := s.ImportMerge(tc.data); err == nil {
				t.Fatalf("malformed envelope accepted: % x", tc.data)
			}
			snapshotsEqual(t, before, s.Snapshot(), "state after rejected envelope")
		})
	}
}

// TestPartialEnvelopeFailureIsAtomic pins the decode-then-apply contract:
// an envelope whose first entry is valid but whose second is broken must
// merge nothing.
func TestPartialEnvelopeFailureIsAtomic(t *testing.T) {
	src := New(Options{Partitions: 1})
	src.Add("aa", []float64{1})
	src.Add("bb", []float64{2})
	blob, err := src.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the tail so the second entry's payload fails validation
	// while the first decodes cleanly.
	blob = blob[:len(blob)-1]

	dst := New(Options{Partitions: 2})
	dst.Add("aa", []float64{10})
	before := dst.Snapshot()
	if _, err := dst.ImportMerge(blob); err == nil {
		t.Fatal("truncated two-entry envelope accepted")
	}
	snapshotsEqual(t, before, dst.Snapshot(), "state after partially valid envelope")
}

// TestHostileCountNoHugeAlloc mirrors the accum codec gauntlet: a tiny
// envelope claiming 2^24 entries must be rejected without allocating
// entry storage for them.
func TestHostileCountNoHugeAlloc(t *testing.T) {
	payload := append(append([]byte{keyedMagic, keyedVersion, 5}, "dense"...),
		0x80, 0x80, 0x80, 0x08) // count = 2^24, no entry bytes at all
	s := New(Options{Partitions: 1})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := s.ImportMerge(payload); err == nil {
		t.Fatal("hostile count accepted")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("decoder allocated %d bytes for a %d-byte hostile payload", grown, len(payload))
	}
}

func TestKeyPartialsJSONPath(t *testing.T) {
	src := New(Options{Partitions: 3})
	src.Add("x", []float64{1e-300, 1e300})
	src.Add("y", []float64{math.Inf(-1)})
	ps, err := src.ExportPartials("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].Key != "x" || ps[1].Key != "y" {
		t.Fatalf("ExportPartials = %v keys, want sorted [x y]", len(ps))
	}
	// Each blob is an ordinary dense engine envelope.
	for _, p := range ps {
		if name, _, err := engine.UnmarshalPartial(p.Blob); err != nil || name != "dense" {
			t.Fatalf("entry %q is not a dense engine envelope: %v", p.Key, err)
		}
	}
	dst := New(Options{Partitions: 5})
	if err := dst.MergeKeyPartials(ps); err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, src.Snapshot(), dst.Snapshot(), "JSON-path round trip")

	// Validation happens before any state change.
	dst2 := New(Options{Partitions: 2})
	bad := []KeyPartial{
		{Key: "ok", Blob: ps[0].Blob},
		{Key: "", Blob: ps[0].Blob},
	}
	if err := dst2.MergeKeyPartials(bad); err == nil {
		t.Fatal("empty key in partial list accepted")
	}
	if dst2.Len() != 0 {
		t.Error("failed MergeKeyPartials left state behind")
	}
	sp := engine.MustGet("sparse").NewAccumulator()
	sp.Add(1)
	spBlob, err := engine.MarshalPartial("sparse", sp)
	if err != nil {
		t.Fatal(err)
	}
	spPs := []KeyPartial{{Key: "ok", Blob: ps[0].Blob}, {Key: "z", Blob: spBlob}}
	if err := dst2.MergeKeyPartials(spPs); !errors.Is(err, engine.ErrWireInvalid) {
		t.Fatalf("sparse key partial: err = %v, want engine.ErrWireInvalid", err)
	}
	if dst2.Len() != 0 {
		t.Error("rejected sparse partial left state behind")
	}
}
