// Package shard implements the concurrent, long-lived ingestion layer: a
// sharded many-writer accumulator in which any number of goroutines
// Add/AddBatch values with (nearly) no contention, while Snapshot/Sum
// produce the correctly rounded exact sum of everything ingested so far —
// bit-identical regardless of shard count, writer interleaving, or
// snapshot timing.
//
// The determinism is not a scheduling property but an algebraic one,
// inherited from the paper's superaccumulator representation: every value
// lands in exactly one per-shard dense superaccumulator, per-shard
// accumulation and cross-shard merges are exact (carry-free Lemma 1
// merges), and rounding happens once at the end. Any
// partition of the same multiset of inputs therefore merges to the same
// exact sum, so the only nondeterminism a concurrent Snapshot can observe
// is *which* racing Adds it includes — never the value a given set of
// Adds produces.
//
// Mechanically, writers stripe across shards through a sync.Pool of shard
// tokens (per-P locality keeps two running goroutines on different shards
// almost always), each shard guards its live accumulator with a mutex
// that is uncontended in the steady state, and Snapshot performs a
// read-while-write handoff: it swaps every shard's live accumulator for a
// pooled empty one, folds the taken partials through the log-depth
// Lemma 1 merge tree (core.MergeTree) into a base accumulator, and
// recycles the partials. Writers never block on the fold — only on the
// per-shard pointer swap.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"

	"parsum/internal/accum"
	"parsum/internal/core"
)

// Options configures a Sharded accumulator; the zero value is ready to
// use (one shard per P).
type Options struct {
	// Shards is the number of independent writer stripes; 0 means
	// GOMAXPROCS. More shards than concurrently running writers buys
	// nothing; fewer serializes writers onto shared locks (still correct,
	// just slower).
	Shards int
}

// slot is one shard: a mutex-guarded live accumulator, padded so
// neighbouring shards do not false-share a cache line.
type slot struct {
	mu  sync.Mutex
	acc *accum.Dense
	_   [48]byte // Mutex(8) + pointer(8) + 48 = 64
}

// token is a writer's cached shard assignment, recycled through a
// sync.Pool so goroutines on the same P keep hitting the same shard.
type token struct{ idx uint32 }

// Sharded is a many-writer accumulator with deterministic snapshots. All
// methods are safe for concurrent use. The zero value is not usable;
// construct with New.
type Sharded struct {
	shards []slot

	tokens sync.Pool     // *token — striped shard assignment
	rr     atomic.Uint32 // round-robin seed for new tokens

	// snapMu serializes Snapshot/Sum/Reset/Merge and guards base, which
	// holds everything folded out of the shards by earlier snapshots.
	snapMu sync.Mutex
	base   *accum.Dense

	accPool sync.Pool // recycled empty accumulators for shard handoff
}

// New returns an empty Sharded accumulator.
func New(opt Options) *Sharded {
	n := opt.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Sharded{shards: make([]slot, n), base: accum.NewDense(0)}
	for i := range s.shards {
		s.shards[i].acc = accum.NewDense(0)
	}
	return s
}

// Shards returns the number of writer stripes.
func (s *Sharded) Shards() int { return len(s.shards) }

func (s *Sharded) fresh() *accum.Dense {
	if v := s.accPool.Get(); v != nil {
		return v.(*accum.Dense)
	}
	return accum.NewDense(0)
}

func (s *Sharded) recycle(a *accum.Dense) {
	a.Reset()
	s.accPool.Put(a)
}

// Add accumulates x exactly into one shard.
func (s *Sharded) Add(x float64) {
	t, _ := s.tokens.Get().(*token)
	if t == nil {
		t = &token{idx: s.rr.Add(1) % uint32(len(s.shards))}
	}
	sl := &s.shards[t.idx]
	sl.mu.Lock()
	sl.acc.Add(x)
	sl.mu.Unlock()
	s.tokens.Put(t)
}

// AddBatch accumulates every element of xs exactly into one shard. It is
// the high-throughput ingestion call: one striped-lock acquisition per
// batch, amortizing the shard handoff cost across len(xs) values.
func (s *Sharded) AddBatch(xs []float64) {
	if len(xs) == 0 {
		return
	}
	t, _ := s.tokens.Get().(*token)
	if t == nil {
		t = &token{idx: s.rr.Add(1) % uint32(len(s.shards))}
	}
	sl := &s.shards[t.idx]
	sl.mu.Lock()
	sl.acc.AddSlice(xs)
	sl.mu.Unlock()
	s.tokens.Put(t)
}

// AddBatches accumulates every slice in batches exactly into one shard
// under a single striped-lock acquisition: a group of request bodies
// applies without concatenating them, for the same accumulation work
// the slices would have cost individually minus the per-request
// locking. Exactness is unaffected — each value still lands in exactly
// one shard accumulator.
func (s *Sharded) AddBatches(batches [][]float64) {
	if len(batches) == 0 {
		return
	}
	t, _ := s.tokens.Get().(*token)
	if t == nil {
		t = &token{idx: s.rr.Add(1) % uint32(len(s.shards))}
	}
	sl := &s.shards[t.idx]
	sl.mu.Lock()
	for _, xs := range batches {
		sl.acc.AddSlice(xs)
	}
	sl.mu.Unlock()
	s.tokens.Put(t)
}

// SubBatches deletes every slice in batches exactly under a single
// striped-lock acquisition — the deletion half of the batcher's flush
// entry point.
func (s *Sharded) SubBatches(batches [][]float64) {
	if len(batches) == 0 {
		return
	}
	t, _ := s.tokens.Get().(*token)
	if t == nil {
		t = &token{idx: s.rr.Add(1) % uint32(len(s.shards))}
	}
	sl := &s.shards[t.idx]
	sl.mu.Lock()
	for _, xs := range batches {
		sl.acc.SubSlice(xs)
	}
	sl.mu.Unlock()
	s.tokens.Put(t)
}

// Sub deletes x from the accumulated sum exactly, landing in one shard.
// Deletion is as exact as insertion (the backing representation is a
// group): any interleaving of adds and subs that leaves the same multiset
// snapshots to the same bits.
func (s *Sharded) Sub(x float64) {
	t, _ := s.tokens.Get().(*token)
	if t == nil {
		t = &token{idx: s.rr.Add(1) % uint32(len(s.shards))}
	}
	sl := &s.shards[t.idx]
	sl.mu.Lock()
	sl.acc.Sub(x)
	sl.mu.Unlock()
	s.tokens.Put(t)
}

// SubBatch deletes every element of xs exactly, amortizing the shard
// handoff over the batch like AddBatch.
func (s *Sharded) SubBatch(xs []float64) {
	if len(xs) == 0 {
		return
	}
	t, _ := s.tokens.Get().(*token)
	if t == nil {
		t = &token{idx: s.rr.Add(1) % uint32(len(s.shards))}
	}
	sl := &s.shards[t.idx]
	sl.mu.Lock()
	sl.acc.SubSlice(xs)
	sl.mu.Unlock()
	s.tokens.Put(t)
}

// Writer returns a handle pinned to one shard, assigned round-robin.
// Dedicated long-lived writers that keep a Writer each avoid even the
// token-pool hop of Sharded.Add; up to ⌈writers/shards⌉ writers share a
// stripe (and its lock).
func (s *Sharded) Writer() *Writer {
	return &Writer{sl: &s.shards[s.rr.Add(1)%uint32(len(s.shards))]}
}

// Writer is a shard-pinned ingestion handle; safe for concurrent use,
// though its point is one goroutine owning it.
type Writer struct {
	sl *slot
}

// Add accumulates x exactly into the writer's shard.
func (w *Writer) Add(x float64) {
	w.sl.mu.Lock()
	w.sl.acc.Add(x)
	w.sl.mu.Unlock()
}

// AddBatch accumulates every element of xs exactly into the writer's shard.
func (w *Writer) AddBatch(xs []float64) {
	w.sl.mu.Lock()
	w.sl.acc.AddSlice(xs)
	w.sl.mu.Unlock()
}

// Sub deletes x exactly from the writer's shard (see Sharded.Sub).
func (w *Writer) Sub(x float64) {
	w.sl.mu.Lock()
	w.sl.acc.Sub(x)
	w.sl.mu.Unlock()
}

// SubBatch deletes every element of xs exactly from the writer's shard.
func (w *Writer) SubBatch(xs []float64) {
	w.sl.mu.Lock()
	w.sl.acc.SubSlice(xs)
	w.sl.mu.Unlock()
}

// drain swaps every shard's live accumulator for a pooled empty one and
// returns the taken partials. Each swap is the linearization point for
// that shard: an Add that completed before it is in the returned partial,
// one that starts after it lands in the fresh accumulator.
func (s *Sharded) drain() []*accum.Dense {
	parts := make([]*accum.Dense, len(s.shards))
	for i := range s.shards {
		sl := &s.shards[i]
		sl.mu.Lock()
		parts[i] = sl.acc
		sl.acc = s.fresh()
		sl.mu.Unlock()
	}
	return parts
}

// foldLocked drains the shards and merges the partials into base through
// the log-depth Lemma 1 merge tree. Caller holds snapMu.
func (s *Sharded) foldLocked() {
	delta := core.MergeTree(s.drain(), func(dst, src *accum.Dense) *accum.Dense {
		dst.Merge(src)
		s.recycle(src)
		return dst
	})
	s.base.Merge(delta)
	s.recycle(delta)
}

// Snapshot returns the correctly rounded exact sum of every Add/AddBatch
// that completed before it, without disturbing ingestion: writers block
// only for their own shard's accumulator swap, never for the merge or the
// rounding. The value is bit-identical to summing the same inputs
// sequentially, for every shard count and interleaving.
func (s *Sharded) Snapshot() float64 {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.foldLocked()
	return s.base.Round()
}

// Sum is Snapshot: the correctly rounded exact sum ingested so far.
func (s *Sharded) Sum() float64 { return s.Snapshot() }

// Reset empties the accumulator. Adds racing with Reset land before or
// after it per shard (each shard's swap is its linearization point).
func (s *Sharded) Reset() {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	for _, p := range s.drain() {
		s.recycle(p)
	}
	s.base.Reset()
}

// SnapshotBytes folds everything ingested so far and returns its exact
// value as a versioned dense wire partial (core.MarshalDensePartial),
// suitable for shipping to a remote merge service. Like Snapshot it does
// not disturb ingestion, and the encoded value covers every Add/AddBatch
// that completed before the per-shard swaps.
func (s *Sharded) SnapshotBytes() ([]byte, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.foldLocked()
	return core.MarshalDensePartial(s.base)
}

// MergeBytes decodes a wire partial and folds its exact contents into s —
// the reducer half of the paper's combiner→reducer exchange. Unlike Merge,
// which panics on programmer error, MergeBytes returns errors: the payload
// is remote input, and a malformed partial — including one naming any
// engine but dense — must not take the process down. The merge is exact,
// so pushing the same set of partials in any order yields a bit-identical
// Sum.
func (s *Sharded) MergeBytes(data []byte) error {
	acc, err := core.UnmarshalDensePartial(data)
	if err != nil {
		return err
	}
	s.MergeDense(acc)
	return nil
}

// MergeDense folds an already-decoded partial into s: the apply half of
// MergeBytes, for a caller that validates a payload before it commits to
// applying it. acc is unchanged.
func (s *Sharded) MergeDense(acc *accum.Dense) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.base.Merge(acc)
}

// mergeMu serializes cross-instance merges so concurrent a.Merge(b) and
// b.Merge(a) cannot deadlock on the two snapMu locks.
var mergeMu sync.Mutex

// Merge folds the exact contents of o into s; o's value is unchanged and
// o remains usable. Adds racing on either side land in that side's
// post-merge state per their shard swap.
func (s *Sharded) Merge(o *Sharded) {
	if s == o {
		panic("shard: Merge of a Sharded with itself")
	}
	mergeMu.Lock()
	defer mergeMu.Unlock()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	o.snapMu.Lock()
	defer o.snapMu.Unlock()
	o.foldLocked()
	s.base.Merge(o.base)
}
