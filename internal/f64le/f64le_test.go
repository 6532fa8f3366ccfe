package f64le

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

// samples covers the bit patterns a value codec must carry exactly.
var samples = []float64{
	0, math.Copysign(0, -1), 1, -1.5, math.Pi, 1e308, -1e-308,
	math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), // NaN payload
	math.Float64frombits(0x0123_4567_89ab_cdef),
}

// reference is the portable encoding the codec must match.
func reference(order binary.AppendByteOrder, xs []float64) []byte {
	var b []byte
	for _, x := range xs {
		b = order.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func sameBits(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d: bits %016x, want %016x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestCodecMatchesReference(t *testing.T) {
	want := reference(binary.LittleEndian, samples)
	if got := Encode(samples); !bytes.Equal(got, want) {
		t.Fatalf("Encode = %x, want %x", got, want)
	}
	prefix := []byte{0xaa, 0xbb}
	if got := Append(prefix, samples); !bytes.Equal(got, append([]byte{0xaa, 0xbb}, want...)) {
		t.Fatalf("Append = %x", got)
	}
	sameBits(t, Decode(want), samples)
	if view(nil) != nil || len(Encode(nil)) != 0 || len(Decode(nil)) != 0 {
		t.Fatal("empty input must encode and decode to empty")
	}
}

func TestBytesIsAView(t *testing.T) {
	xs := []float64{1, 2}
	b := view(xs)
	if len(b) != 16 {
		t.Fatalf("len = %d, want 16", len(b))
	}
	xs[1] = -0.5
	if got := binary.NativeEndian.Uint64(b[8:]); got != math.Float64bits(-0.5) {
		t.Fatalf("view did not see the write: %016x", got)
	}
}

// TestForcedBigEndian runs the swap path on this host: with the flag
// forced, every "little-endian" output is really big-endian (the swap
// reversed each word), and decoding it swaps back, so the output must
// match the big-endian reference and every round trip must be exact.
func TestForcedBigEndian(t *testing.T) {
	if bigEndian {
		t.Skip("host is big-endian: the swap path already runs everywhere")
	}
	bigEndian = true
	defer func() { bigEndian = false }()
	want := reference(binary.BigEndian, samples)
	orig := append([]float64(nil), samples...)
	if got := Append(nil, samples); !bytes.Equal(got, want) {
		t.Fatalf("forced Append = %x, want %x", got, want)
	}
	if got := Encode(samples); !bytes.Equal(got, want) {
		t.Fatalf("forced Encode = %x, want %x", got, want)
	}
	// Encode copies on this path: the caller's slice is neither aliased
	// nor swapped.
	sameBits(t, samples, orig)
	sameBits(t, Decode(want), samples)
	got, err := Read(chunks(want), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, got, samples)
	// Swap twice is the identity.
	b := reference(binary.LittleEndian, samples)
	swap(b)
	swap(b)
	if !bytes.Equal(b, reference(binary.LittleEndian, samples)) {
		t.Fatal("double swap is not the identity")
	}
}

// chunks forces many short reads through the buffer-growth path.
func chunks(b []byte) io.Reader { return iotest.HalfReader(iotest.OneByteReader(bytes.NewReader(b))) }

func TestReadDeclaredAndUnknownLength(t *testing.T) {
	long := make([]float64, 3000)
	for i := range long {
		long[i] = float64(i) - 0.25
	}
	for _, xs := range [][]float64{nil, samples, long} {
		body := reference(binary.LittleEndian, xs)
		for _, buf := range [][]float64{nil, make([]float64, 7, 7), make([]float64, 0, 8192)} {
			for _, size := range []int64{int64(len(body)), -1} {
				for name, r := range map[string]io.Reader{"whole": bytes.NewReader(body), "chunked": chunks(body)} {
					got, err := Read(r, size, buf)
					if err != nil {
						t.Fatalf("n=%d size=%d %s: %v", len(xs), size, name, err)
					}
					sameBits(t, got, xs)
				}
			}
		}
	}
}

// TestReadReusesBuffer pins the pooling contract: a buffer with room is
// filled in place, and stale values past the new body never leak.
func TestReadReusesBuffer(t *testing.T) {
	buf := make([]float64, 16)
	for i := range buf {
		buf[i] = 99
	}
	got, err := Read(bytes.NewReader(reference(binary.LittleEndian, []float64{1, 2})), 16, buf)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, got, []float64{1, 2})
	if &got[0] != &buf[0] {
		t.Fatal("a buffer with room was not reused")
	}
}

// TestReadPreallocBound pins that a declared length alone does not
// allocate past the prealloc cap: a short body claiming 64 MiB fails
// without the buffer ever growing beyond what arrived.
func TestReadPreallocBound(t *testing.T) {
	got, err := Read(bytes.NewReader(make([]byte, 64)), 64<<20, nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: err = %v, want ErrUnexpectedEOF", err)
	}
	if cap(got) > prealloc/8 || len(got) != 0 {
		t.Fatalf("len/cap = %d/%d, want 0 and at most %d", len(got), cap(got), prealloc/8)
	}
	// A long declared body grows past the cap as its bytes arrive.
	body := make([]byte, prealloc+4096)
	got, err = Read(chunks(body), int64(len(body)), nil)
	if err != nil || len(got) != len(body)/8 {
		t.Fatalf("long body: %d values, err %v", len(got), err)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("12345678"), 7, nil); !errors.Is(err, errLength) {
		t.Errorf("declared 7 bytes: err = %v, want errLength", err)
	}
	if _, err := Read(strings.NewReader("123456789"), -1, nil); !errors.Is(err, errLength) {
		t.Errorf("unknown length, 9 bytes: err = %v, want errLength", err)
	}
	if _, err := Read(strings.NewReader("12345678"), 16, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short body: err = %v, want ErrUnexpectedEOF", err)
	}
	boom := errors.New("boom")
	if _, err := Read(iotest.ErrReader(boom), -1, nil); err != boom {
		t.Errorf("reader error: err = %v, want it passed through", err)
	}
	got, err := Read(strings.NewReader(""), 0, make([]float64, 4))
	if err != nil || len(got) != 0 {
		t.Errorf("empty body: %v, %v", got, err)
	}
}
