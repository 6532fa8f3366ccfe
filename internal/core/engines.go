package core

import (
	"fmt"

	"parsum/internal/accum"
	"parsum/internal/engine"
)

// Registry names of the engines this package provides. EngineDense and
// EngineSparse have specialized parallel hot paths (pooled accumulators,
// Lemma 1 tree merge); the others run through the generic engine path.
const (
	EngineDense     = "dense"
	EngineSparse    = "sparse"
	EngineAdaptive  = "adaptive"
	EngineSmall     = "small"
	EngineLarge     = "large"
	EngineTruncated = "truncated"
)

func init() {
	exactParallel := engine.Caps{
		Exact:                 true,
		CorrectlyRounded:      true,
		DeterministicParallel: true,
		Streaming:             true,
		// The signed-digit representations are closed under negation, so
		// every superaccumulator engine supports exact deletion.
		Invertible: true,
	}
	engine.Register(engine.New(EngineDense,
		"full-range (α,β)-regularized dense superaccumulator with carry-free Lemma 1 merges",
		exactParallel, Sum,
		func() engine.Accumulator { return &denseAcc{d: accum.NewDense(0)} }))
	engine.Register(engine.New(EngineSparse,
		"active-window sparse superaccumulator (σ(n)-proportional state, carry-free merges)",
		exactParallel, SumSparse,
		func() engine.Accumulator { return &windowAcc{w: accum.NewWindow(0)} }))
	engine.Register(engine.New(EngineSmall,
		"Neal-style small superaccumulator (carry-propagating merge baseline)",
		exactParallel,
		func(xs []float64) float64 { s := accum.NewSmall(); s.AddSlice(xs); return s.Round() },
		func() engine.Accumulator { return &smallAcc{s: accum.NewSmall()} }))
	engine.Register(engine.New(EngineLarge,
		"Neal-style large superaccumulator (one bin per exponent, fastest sequential accumulate)",
		exactParallel,
		func(xs []float64) float64 { l := accum.NewLarge(); l.AddSlice(xs); return l.Round() },
		func() engine.Accumulator { return &largeAcc{l: accum.NewLarge()} }))
	engine.Register(engine.New(EngineAdaptive,
		"condition-number-sensitive γ-truncated summation (Theorem 4; faithful rounding)",
		engine.Caps{Faithful: true},
		func(xs []float64) float64 { v, _ := SumAdaptive(xs, Options{}); return v },
		nil))
	engine.Register(engine.New(EngineTruncated,
		"fixed-γ truncated sparse summation (Section 4) with certified exact fallback",
		engine.Caps{Faithful: true},
		SumTruncated,
		nil))
}

// denseAcc adapts accum.Dense to the engine.Accumulator interface.
type denseAcc struct{ d *accum.Dense }

func (a *denseAcc) Add(x float64)              { a.d.Add(x) }
func (a *denseAcc) AddSlice(xs []float64)      { a.d.AddSlice(xs) }
func (a *denseAcc) AddSlice32(xs []float32)    { a.d.AddSlice32(xs) }
func (a *denseAcc) Sub(x float64)              { a.d.Sub(x) }
func (a *denseAcc) SubSlice(xs []float64)      { a.d.SubSlice(xs) }
func (a *denseAcc) SubSlice32(xs []float32)    { a.d.SubSlice32(xs) }
func (a *denseAcc) Merge(o engine.Accumulator) { a.d.Merge(o.(*denseAcc).d) }

func (a *denseAcc) SubAccumulator(o engine.Accumulator) { a.d.AddNeg(o.(*denseAcc).d) }
func (a *denseAcc) Round() float64                      { return a.d.Round() }
func (a *denseAcc) Round32() float32                    { return a.d.Round32() }
func (a *denseAcc) Reset()                              { a.d.Reset() }
func (a *denseAcc) Clone() engine.Accumulator           { return &denseAcc{d: a.d.Clone()} }
func (a *denseAcc) Sigma() int                          { return a.d.ToSparse().Len() }

// MarshalBinary implements the wire-partial codec for the dense engine.
func (a *denseAcc) MarshalBinary() ([]byte, error) { return a.d.MarshalBinary() }

// UnmarshalBinary decodes a wire partial at the engine's canonical digit
// width (see DecodeDense).
func (a *denseAcc) UnmarshalBinary(data []byte) error {
	d, err := DecodeDense(data)
	if err != nil {
		return err
	}
	*a.d = *d
	return nil
}

// DecodeDense decodes a bare dense payload (accum.Dense's own codec, no
// envelope), enforcing the dense engine's canonical digit width: the
// engine always runs at accum.DefaultWidth, and a partial of any other
// width could not merge with local accumulators.
func DecodeDense(payload []byte) (*accum.Dense, error) {
	d := new(accum.Dense)
	if err := DecodeDenseInto(d, payload); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeDenseInto is DecodeDense into a caller-supplied accumulator —
// one from a pool, refilled in place when it already has the canonical
// width. On error d's contents are unspecified (it may hold a partial of
// another width); the caller must not keep it.
func DecodeDenseInto(d *accum.Dense, payload []byte) error {
	if err := d.UnmarshalBinary(payload); err != nil {
		return err
	}
	if d.Width() != accum.DefaultWidth {
		return fmt.Errorf("engine %q: partial has digit width %d, engine runs at %d", EngineDense, d.Width(), accum.DefaultWidth)
	}
	return nil
}

// MarshalDensePartial encodes d as an engine wire partial tagged
// EngineDense — the envelope every service layer ships, byte-identical to
// a dense Accumulator's.
func MarshalDensePartial(d *accum.Dense) ([]byte, error) {
	return engine.MarshalPartial(EngineDense, &denseAcc{d: d})
}

// UnmarshalDensePartial decodes an engine wire partial that must carry a
// dense partial at the canonical width. A partial naming any other engine
// is rejected like any other malformed envelope: the service stack holds
// only dense accumulators, and the envelope's layout is known only to
// engine.UnmarshalPartial.
func UnmarshalDensePartial(data []byte) (*accum.Dense, error) {
	name, a, err := engine.UnmarshalPartial(data)
	if err != nil {
		return nil, err
	}
	da, ok := a.(*denseAcc)
	if !ok {
		return nil, fmt.Errorf("%w: engine %q partial, want %q", engine.ErrWireInvalid, name, EngineDense)
	}
	return da.d, nil
}

// windowAcc adapts accum.Window to the engine.Accumulator interface.
type windowAcc struct{ w *accum.Window }

func (a *windowAcc) Add(x float64)              { a.w.Add(x) }
func (a *windowAcc) AddSlice(xs []float64)      { a.w.AddSlice(xs) }
func (a *windowAcc) AddSlice32(xs []float32)    { a.w.AddSlice32(xs) }
func (a *windowAcc) Sub(x float64)              { a.w.Sub(x) }
func (a *windowAcc) SubSlice(xs []float64)      { a.w.SubSlice(xs) }
func (a *windowAcc) SubSlice32(xs []float32)    { a.w.SubSlice32(xs) }
func (a *windowAcc) Merge(o engine.Accumulator) { a.w.Merge(o.(*windowAcc).w) }

func (a *windowAcc) SubAccumulator(o engine.Accumulator) { a.w.AddNeg(o.(*windowAcc).w) }
func (a *windowAcc) Round() float64                      { return a.w.Round() }
func (a *windowAcc) Round32() float32                    { return a.w.Round32() }
func (a *windowAcc) Reset()                              { a.w.Reset() }
func (a *windowAcc) Clone() engine.Accumulator           { return &windowAcc{w: a.w.Clone()} }
func (a *windowAcc) Sigma() int                          { return a.w.ToSparse().Len() }

// MarshalBinary implements the wire-partial codec for the sparse engine.
func (a *windowAcc) MarshalBinary() ([]byte, error) { return a.w.MarshalBinary() }

// UnmarshalBinary decodes a wire partial, enforcing the engine's canonical
// digit width (see denseAcc.UnmarshalBinary).
func (a *windowAcc) UnmarshalBinary(data []byte) error {
	var w accum.Window
	if err := w.UnmarshalBinary(data); err != nil {
		return err
	}
	if w.Width() != a.w.Width() {
		return fmt.Errorf("engine %q: partial has digit width %d, engine runs at %d", EngineSparse, w.Width(), a.w.Width())
	}
	*a.w = w
	return nil
}

// smallAcc adapts accum.Small to the engine.Accumulator interface.
type smallAcc struct{ s *accum.Small }

func (a *smallAcc) Add(x float64)              { a.s.Add(x) }
func (a *smallAcc) AddSlice(xs []float64)      { a.s.AddSlice(xs) }
func (a *smallAcc) AddSlice32(xs []float32)    { a.s.AddSlice32(xs) }
func (a *smallAcc) Sub(x float64)              { a.s.Sub(x) }
func (a *smallAcc) SubSlice(xs []float64)      { a.s.SubSlice(xs) }
func (a *smallAcc) SubSlice32(xs []float32)    { a.s.SubSlice32(xs) }
func (a *smallAcc) Merge(o engine.Accumulator) { a.s.Merge(o.(*smallAcc).s) }

func (a *smallAcc) SubAccumulator(o engine.Accumulator) { a.s.AddNeg(o.(*smallAcc).s) }
func (a *smallAcc) Round() float64                      { return a.s.Round() }
func (a *smallAcc) Reset()                              { a.s.Reset() }
func (a *smallAcc) Clone() engine.Accumulator           { return &smallAcc{s: a.s.Clone()} }

// MarshalBinary implements the wire-partial codec for the small engine;
// Small's chunk spacing is fixed, so no width enforcement is needed beyond
// the accum codec's own.
func (a *smallAcc) MarshalBinary() ([]byte, error) { return a.s.MarshalBinary() }

// UnmarshalBinary implements the wire-partial codec for the small engine.
func (a *smallAcc) UnmarshalBinary(data []byte) error { return a.s.UnmarshalBinary(data) }

// largeAcc adapts accum.Large to the engine.Accumulator interface.
type largeAcc struct{ l *accum.Large }

func (a *largeAcc) Add(x float64)              { a.l.Add(x) }
func (a *largeAcc) AddSlice(xs []float64)      { a.l.AddSlice(xs) }
func (a *largeAcc) Sub(x float64)              { a.l.Sub(x) }
func (a *largeAcc) SubSlice(xs []float64)      { a.l.SubSlice(xs) }
func (a *largeAcc) Merge(o engine.Accumulator) { a.l.Merge(o.(*largeAcc).l) }

func (a *largeAcc) SubAccumulator(o engine.Accumulator) { a.l.AddNeg(o.(*largeAcc).l) }
func (a *largeAcc) Round() float64                      { return a.l.Round() }
func (a *largeAcc) Reset()                              { a.l.Reset() }
func (a *largeAcc) Clone() engine.Accumulator           { return &largeAcc{l: a.l.Clone()} }

// MarshalBinary implements the wire-partial codec for the large engine;
// Large's base width is fixed, enforced by the accum codec.
func (a *largeAcc) MarshalBinary() ([]byte, error) { return a.l.MarshalBinary() }

// UnmarshalBinary implements the wire-partial codec for the large engine.
func (a *largeAcc) UnmarshalBinary(data []byte) error { return a.l.UnmarshalBinary(data) }
