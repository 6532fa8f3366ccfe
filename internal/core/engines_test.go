package core

import (
	"errors"
	"math"
	"testing"

	"parsum/internal/accum"
	"parsum/internal/engine"
	"parsum/internal/gen"
)

// TestDensePartialRoundTrip: the service stack's envelope helpers are the
// dense engine's own wire codec — byte-identical to a dense
// engine.Accumulator's partial and value-faithful on the way back.
func TestDensePartialRoundTrip(t *testing.T) {
	xs := genData(gen.Random, 5000, 1500, 3)
	xs = append(xs, math.Inf(1), 0x1p-1074)
	d := accum.NewDense(0)
	d.AddSlice(xs)
	blob, err := MarshalDensePartial(d)
	if err != nil {
		t.Fatal(err)
	}
	ref := engine.MustGet(EngineDense).NewAccumulator()
	ref.AddSlice(xs)
	refBlob, err := engine.MarshalPartial(EngineDense, ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(refBlob) {
		t.Fatal("MarshalDensePartial differs from the dense engine's partial")
	}
	back, err := UnmarshalDensePartial(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Round(), d.Round(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("round trip = %g, want %g", got, want)
	}
}

// TestDensePartialRejections: a partial of any other engine, a dense
// payload at a non-default width, and a damaged envelope are all decode
// errors.
func TestDensePartialRejections(t *testing.T) {
	sp := engine.MustGet(EngineSparse).NewAccumulator()
	sp.Add(1)
	spBlob, err := engine.MarshalPartial(EngineSparse, sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalDensePartial(spBlob); !errors.Is(err, engine.ErrWireInvalid) {
		t.Errorf("sparse partial: err = %v, want ErrWireInvalid", err)
	}
	narrow := accum.NewDense(16)
	narrow.Add(1)
	payload, err := narrow.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDense(payload); err == nil {
		t.Error("width-16 dense payload accepted")
	}
	if _, err := UnmarshalDensePartial(append([]byte{0xC7, 1, 5, 'd', 'e', 'n', 's', 'e'}, payload...)); err == nil {
		t.Error("width-16 dense partial accepted")
	}
	if _, err := UnmarshalDensePartial(spBlob[:2]); err == nil {
		t.Error("truncated envelope accepted")
	}
	if _, err := DecodeDense([]byte{0xA5}); err == nil {
		t.Error("truncated payload accepted")
	}
}
