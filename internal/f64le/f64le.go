// Package f64le is the one little-endian float64 codec behind the raw
// value paths: the /v1/add and /v1/sub octet-stream bodies, the WAL's
// value records and the client's raw sends all carry float64s as their
// IEEE-754 bits in little-endian byte order.
//
// On a little-endian host that encoding is the slice's own memory, so
// the codec is a view, not a conversion: view reinterprets a []float64
// as its bytes without copying. That reinterpretation is sound in both
// directions because every 8-byte pattern is a valid float64 (NaN
// payloads, signed zeros and subnormals included), so filling the view
// from the network can never produce an invalid value. On a big-endian
// host the view holds host-order bytes, and swap converts them to or
// from little-endian in place.
package f64le

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"unsafe"
)

// bigEndian reports whether the host stores float64s big-endian. It is a
// variable so tests can force the swap path on a little-endian host.
var bigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// view returns the memory of xs as 8*len(xs) host-order bytes, without
// copying: writes through either slice are visible through the other.
// This is the only use of package unsafe in the module.
func view(xs []float64) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs))
}

// swap converts b, a whole number of 8-byte words, between host order
// and little-endian in place. It is a no-op on little-endian hosts and
// its own inverse on big-endian ones.
func swap(b []byte) {
	if !bigEndian {
		return
	}
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], binary.BigEndian.Uint64(b[i:]))
	}
}

// Append appends the little-endian encoding of xs to b: one append of
// the view (plus an in-place swap of the appended bytes on big-endian
// hosts).
func Append(b []byte, xs []float64) []byte {
	n := len(b)
	b = append(b, view(xs)...)
	swap(b[n:])
	return b
}

// Encode returns the little-endian encoding of xs. On little-endian
// hosts that is the view of xs itself: the result aliases the caller's
// slice and must not be read once the caller may modify xs again. On
// big-endian hosts it is a fresh copy.
func Encode(xs []float64) []byte {
	if bigEndian {
		return Append(nil, xs)
	}
	return view(xs)
}

// Decode returns the float64s whose little-endian encoding is p, in a
// new slice. len(p) must be a multiple of 8.
func Decode(p []byte) []float64 {
	xs := make([]float64, len(p)/8)
	b := view(xs)
	copy(b, p)
	swap(b)
	return xs
}

// errLength reports a body whose byte length is not a multiple of 8.
var errLength = errors.New("length is not a multiple of 8")

// prealloc caps how much of a declared length Read allocates before any
// data has arrived, so a Content-Length header alone cannot make a
// server allocate a large buffer. Bodies beyond it grow the buffer
// (doubling) as their bytes arrive.
const prealloc = 1 << 20

// Read reads a little-endian float64 body from r straight into the
// memory of buf (reusing its capacity; buf's contents are overwritten)
// and returns the decoded values. size is the body's declared byte
// length, or negative when unknown, in which case Read consumes r to
// EOF. A declared size that is not a multiple of 8 fails with errLength
// before anything is read; a body that ends before its declared size
// fails with io.ErrUnexpectedEOF. On error the returned slice still
// carries the (possibly grown) buffer, with length 0, so callers can
// recycle it; errors from r are returned as-is.
func Read(r io.Reader, size int64, buf []float64) ([]float64, error) {
	if size >= 0 && size%8 != 0 {
		return buf[:0], fmt.Errorf("binary batch length %d: %w", size, errLength)
	}
	want := max(cap(buf), 512)
	if size >= 0 {
		want = int(min(size, prealloc) / 8)
	}
	xs := slices.Grow(buf[:0], want)
	n := 0 // bytes read into the view
	for {
		room := view(xs[:cap(xs)])
		if size >= 0 && int64(len(room)) > size {
			room = room[:size]
		}
		if n == len(room) {
			if size >= 0 && int64(n) == size {
				break
			}
			// Full: double the buffer, never past the declared size.
			more := n / 8
			if size >= 0 {
				more = min(more, int(size/8)-n/8)
			}
			xs = slices.Grow(xs[:n/8], max(more, 1))
			continue
		}
		m, err := r.Read(room[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return xs[:0], err
		}
	}
	switch {
	case size >= 0 && int64(n) < size:
		return xs[:0], fmt.Errorf("binary batch: read %d of %d bytes: %w", n, size, io.ErrUnexpectedEOF)
	case n%8 != 0:
		return xs[:0], fmt.Errorf("binary batch length %d: %w", n, errLength)
	}
	xs = xs[:n/8]
	swap(view(xs))
	return xs, nil
}
