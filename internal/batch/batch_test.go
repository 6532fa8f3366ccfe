// Unit tests for the batcher: size- and deadline-triggered flushes
// (driven by a FakeClock, so deadline behaviour is deterministic, not
// sleep-calibrated), bounded-queue rejection with untouched state,
// drain-on-Close, the zero-allocation enqueue hot path, and the
// consistency invariants of the metrics snapshot under concurrency.
package batch_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"parsum"
	"parsum/internal/batch"
	"parsum/internal/oracle"
	"parsum/internal/shard"
)

// recSink records every sink call. It implements only Sink (not
// SliceSink), so multi-request flushes exercise the concatenation path.
type recSink struct {
	mu    sync.Mutex
	adds  []float64
	subs  []float64
	calls [][]float64 // every AddBatch/SubBatch payload, in call order

	gate    chan struct{} // when non-nil, every call waits until it is closed
	entered chan struct{} // when non-nil, every call signals here first
}

func (r *recSink) apply(xs []float64, sub bool) {
	if r.entered != nil {
		r.entered <- struct{}{}
	}
	if r.gate != nil {
		<-r.gate
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := append([]float64(nil), xs...)
	r.calls = append(r.calls, cp)
	if sub {
		r.subs = append(r.subs, cp...)
	} else {
		r.adds = append(r.adds, cp...)
	}
}

func (r *recSink) AddBatch(xs []float64) { r.apply(xs, false) }
func (r *recSink) SubBatch(xs []float64) { r.apply(xs, true) }

func (r *recSink) snapshot() (adds, subs []float64, calls int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.adds...), append([]float64(nil), r.subs...), len(r.calls)
}

// waitFor polls cond until it holds or the test deadline budget burns.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func seq(lo, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(lo + i)
	}
	return xs
}

// TestSizeFlushCoalesces proves the size trigger: with the clock frozen
// (no deadline can ever fire), four concurrent 2-value requests must
// coalesce into exactly one 8-value flush when MaxBatch is 8 — and
// every Add returns only after that flush completed (group commit).
func TestSizeFlushCoalesces(t *testing.T) {
	sink := &recSink{}
	clk := batch.NewFakeClock()
	b := batch.New(sink, batch.Options{QueueLen: 16, MaxBatch: 8, MaxDelay: time.Hour, Clock: clk})
	defer b.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := b.Add(context.Background(), seq(10*i, 2)); err != nil {
				t.Errorf("Add: %v", err)
			}
		}(i)
	}
	wg.Wait()

	adds, _, calls := sink.snapshot()
	if calls != 1 || len(adds) != 8 {
		t.Fatalf("got %d sink calls with %d total values, want 1 call with 8", calls, len(adds))
	}
	m := b.Metrics()
	if m.SizeFlushes != 1 || m.DeadlineFlushes != 0 || m.Flushes != 1 {
		t.Fatalf("flush causes: %+v, want exactly one size flush", m)
	}
	if m.FlushedRequests != 4 || m.FlushedValues != 8 || m.QueueDepth != 0 {
		t.Fatalf("flush counters inconsistent: %+v", m)
	}
}

// TestDeadlineFlushFakeClock proves the latency budget: a request
// smaller than MaxBatch sits until the fake clock passes MaxDelay, then
// flushes with cause=deadline. No sleeping, no flakiness: the test owns
// time.
func TestDeadlineFlushFakeClock(t *testing.T) {
	sink := &recSink{}
	clk := batch.NewFakeClock()
	b := batch.New(sink, batch.Options{QueueLen: 4, MaxBatch: 1 << 20, MaxDelay: 2 * time.Millisecond, Clock: clk})
	defer b.Close()

	errc := make(chan error, 1)
	go func() { errc <- b.Add(context.Background(), seq(0, 3)) }()

	clk.BlockUntilArmed(1)
	if _, _, calls := sink.snapshot(); calls != 0 {
		t.Fatal("flush happened before the deadline expired")
	}
	clk.Advance(2 * time.Millisecond)
	if err := <-errc; err != nil {
		t.Fatalf("Add: %v", err)
	}
	adds, _, calls := sink.snapshot()
	if calls != 1 || len(adds) != 3 {
		t.Fatalf("got %d calls with %d values, want 1 with 3", calls, len(adds))
	}
	if m := b.Metrics(); m.DeadlineFlushes != 1 || m.SizeFlushes != 0 {
		t.Fatalf("want exactly one deadline flush, got %+v", m)
	}
}

// TestDeadlineFlushesFireInOrder drives two full deadline cycles and
// asserts the sink saw the groups in submission order: the MaxDelay set
// by the older group expires first.
func TestDeadlineFlushesFireInOrder(t *testing.T) {
	sink := &recSink{}
	clk := batch.NewFakeClock()
	b := batch.New(sink, batch.Options{QueueLen: 4, MaxBatch: 1 << 20, MaxDelay: time.Millisecond, Clock: clk})
	defer b.Close()

	for round, vals := range [][]float64{seq(100, 2), seq(200, 2)} {
		errc := make(chan error, 1)
		vals := vals
		go func() { errc <- b.Add(context.Background(), vals) }()
		clk.BlockUntilArmed(1)
		clk.Advance(time.Millisecond)
		if err := <-errc; err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	_, _, calls := sink.snapshot()
	if calls != 2 {
		t.Fatalf("got %d sink calls, want 2", calls)
	}
	sink.mu.Lock()
	first, second := sink.calls[0][0], sink.calls[1][0]
	sink.mu.Unlock()
	if first != 100 || second != 200 {
		t.Fatalf("deadline flushes out of order: first=%v second=%v", first, second)
	}
	if m := b.Metrics(); m.DeadlineFlushes != 2 {
		t.Fatalf("want 2 deadline flushes, got %+v", m)
	}
}

// TestRejectLeavesStateUntouched fills the bounded queue behind a
// blocked sink and asserts the overflowing request fails fast with
// ErrQueueFull, mutates nothing, and is invisible to the sink forever —
// the exactness half of the 429 contract.
func TestRejectLeavesStateUntouched(t *testing.T) {
	gate := make(chan struct{})
	sink := &recSink{gate: gate, entered: make(chan struct{}, 16)}
	clk := batch.NewFakeClock()
	b := batch.New(sink, batch.Options{QueueLen: 2, MaxBatch: 1, MaxDelay: time.Hour, Clock: clk})
	defer b.Close()

	ctx := context.Background()
	results := make(chan error, 3)
	go func() { results <- b.Add(ctx, []float64{1}) }()
	<-sink.entered // flusher is now blocked inside the sink holding request 1

	go func() { results <- b.Add(ctx, []float64{2}) }()
	go func() { results <- b.Add(ctx, []float64{3}) }()
	// Depth 3: request 1 is admitted-but-unflushed (the sink is holding
	// its flush open) and requests 2 and 3 fill the two queue slots.
	waitFor(t, "queue to fill", func() bool { return b.Metrics().QueueDepth == 3 })

	before := b.Metrics()
	err := b.Add(ctx, []float64{4})
	if err != batch.ErrQueueFull {
		t.Fatalf("overflow Add: got %v, want ErrQueueFull", err)
	}
	after := b.Metrics()
	if after.Rejected != before.Rejected+1 {
		t.Fatalf("Rejected: got %d, want %d", after.Rejected, before.Rejected+1)
	}
	if after.Enqueued != before.Enqueued || after.EnqueuedValues != before.EnqueuedValues || after.QueueDepth != before.QueueDepth {
		t.Fatalf("rejection mutated admission state: before %+v after %+v", before, after)
	}

	close(gate) // release the sink; everything admitted must complete
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted Add failed: %v", err)
		}
	}
	waitFor(t, "drain", func() bool { return b.Metrics().QueueDepth == 0 })
	adds, _, _ := sink.snapshot()
	sum := 0.0
	for _, v := range adds {
		sum += v
	}
	if len(adds) != 3 || sum != 6 {
		t.Fatalf("sink saw %v, want exactly the admitted values {1,2,3}", adds)
	}
}

// TestSubSplitsFromAdds mixes insertions and deletions in one flush
// group and asserts the batcher routes them to the right sink calls.
func TestSubSplitsFromAdds(t *testing.T) {
	sink := &recSink{}
	clk := batch.NewFakeClock()
	b := batch.New(sink, batch.Options{QueueLen: 16, MaxBatch: 6, MaxDelay: time.Hour, Clock: clk})
	defer b.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(2)
		go func(i int) { defer wg.Done(); _ = b.Add(context.Background(), []float64{float64(i)}) }(i)
		go func(i int) { defer wg.Done(); _ = b.Sub(context.Background(), []float64{float64(10 + i)}) }(i)
	}
	wg.Wait()
	adds, subs, _ := sink.snapshot()
	if len(adds) != 3 || len(subs) != 3 {
		t.Fatalf("adds=%v subs=%v, want 3 each", adds, subs)
	}
	for _, v := range subs {
		if v < 10 {
			t.Fatalf("add value %v leaked into the sub stream", v)
		}
	}
}

// sliceSink records AddBatches/SubBatches groups, proving the batcher
// prefers the zero-copy SliceSink path when the sink offers it.
type sliceSink struct {
	recSink
	groups [][]int // lengths of the slices in each AddBatches call
}

func (s *sliceSink) AddBatches(batches [][]float64) {
	var lens []int
	for _, xs := range batches {
		lens = append(lens, len(xs))
		s.recSink.AddBatch(xs)
	}
	s.mu.Lock()
	s.groups = append(s.groups, lens)
	s.mu.Unlock()
}

func (s *sliceSink) SubBatches(batches [][]float64) {
	for _, xs := range batches {
		s.recSink.SubBatch(xs)
	}
}

// TestSliceSinkZeroCopyPath checks a multi-request flush arrives as one
// AddBatches call carrying the request slices unconcatenated.
func TestSliceSinkZeroCopyPath(t *testing.T) {
	sink := &sliceSink{}
	clk := batch.NewFakeClock()
	b := batch.New(sink, batch.Options{QueueLen: 16, MaxBatch: 4, MaxDelay: time.Hour, Clock: clk})
	defer b.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); _ = b.Add(context.Background(), seq(10*i, 2)) }(i)
	}
	wg.Wait()
	sink.mu.Lock()
	groups := sink.groups
	sink.mu.Unlock()
	if len(groups) != 1 || len(groups[0]) != 2 || groups[0][0] != 2 || groups[0][1] != 2 {
		t.Fatalf("want one AddBatches group of two 2-value slices, got %v", groups)
	}
}

// TestCloseDrainsEverythingAdmitted parks many requests behind a frozen
// clock and a huge MaxBatch, then closes: every admitted request must
// complete with nil (its values applied) and post-Close submissions must
// fail with ErrClosed.
func TestCloseDrainsEverythingAdmitted(t *testing.T) {
	sink := &recSink{}
	clk := batch.NewFakeClock()
	b := batch.New(sink, batch.Options{QueueLen: 64, MaxBatch: 1 << 20, MaxDelay: time.Hour, Clock: clk})

	const reqs = 32
	var wg sync.WaitGroup
	errs := make([]error, reqs)
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Add(context.Background(), seq(i, 1))
		}(i)
	}
	waitFor(t, "all requests admitted", func() bool { return b.Metrics().Enqueued == reqs })
	b.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted request %d got %v after Close, want nil", i, err)
		}
	}
	adds, _, _ := sink.snapshot()
	if len(adds) != reqs {
		t.Fatalf("sink saw %d values, want %d", len(adds), reqs)
	}
	m := b.Metrics()
	if m.DrainFlushes == 0 || m.QueueDepth != 0 || m.FlushedRequests != reqs {
		t.Fatalf("drain metrics inconsistent: %+v", m)
	}
	if err := b.Add(context.Background(), []float64{1}); err != batch.ErrClosed {
		t.Fatalf("post-Close Add: got %v, want ErrClosed", err)
	}
	// Close is idempotent.
	b.Close()
}

// TestEmptyBatchIsNoOp: zero-length submissions complete immediately
// without touching the queue or the sink.
func TestEmptyBatchIsNoOp(t *testing.T) {
	sink := &recSink{}
	b := batch.New(sink, batch.Options{})
	defer b.Close()
	if err := b.Add(context.Background(), nil); err != nil {
		t.Fatalf("empty Add: %v", err)
	}
	if m := b.Metrics(); m.Enqueued != 0 {
		t.Fatalf("empty Add was enqueued: %+v", m)
	}
}

// TestSubmitZeroAlloc asserts the steady-state request path — enqueue,
// flush hand-off, reply — allocates nothing: items and their reply
// channels recycle through a pool, and the single-request flush path
// hands the caller's slice straight to the sink.
func TestSubmitZeroAlloc(t *testing.T) {
	var total float64
	sink := sinkFunc(func(xs []float64) {
		for _, v := range xs {
			total += v
		}
	})
	b := batch.New(sink, batch.Options{QueueLen: 8, MaxBatch: 1, MaxDelay: time.Millisecond})
	defer b.Close()
	ctx := context.Background()
	xs := []float64{1, 2, 3, 4}
	for i := 0; i < 100; i++ { // warm the pools
		if err := b.Add(ctx, xs); err != nil {
			t.Fatal(err)
		}
	}
	best := math.Inf(1)
	for try := 0; try < 3 && best > 0; try++ {
		best = math.Min(best, testing.AllocsPerRun(200, func() {
			if err := b.Add(ctx, xs); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if best > 0 {
		t.Fatalf("submit path allocates %.2f objects per request, want 0", best)
	}
	_ = total
}

// sinkFunc adapts a function to Sink (adds only; subs are a test bug).
type sinkFunc func(xs []float64)

func (f sinkFunc) AddBatch(xs []float64) { f(xs) }
func (f sinkFunc) SubBatch(xs []float64) { panic("unexpected SubBatch") }

// TestMetricsInvariantsUnderLoad hammers the batcher from several
// goroutines while a reader takes snapshots, asserting on every single
// snapshot the invariants documented on Metrics. Under -race this is
// also the torn-counter regression test: with per-field atomics a
// snapshot could observe flushes ahead of enqueues.
func TestMetricsInvariantsUnderLoad(t *testing.T) {
	s := shard.New(shard.Options{Shards: 2})
	b := batch.New(s, batch.Options{QueueLen: 8, MaxBatch: 64, MaxDelay: 200 * time.Microsecond, Flushers: 2})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				xs := make([]float64, 1+r.Intn(8))
				for i := range xs {
					xs[i] = r.NormFloat64()
				}
				err := b.Add(context.Background(), xs)
				if err != nil && err != batch.ErrQueueFull {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}(g)
	}

	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		m := b.Metrics()
		if m.FlushedRequests > m.Enqueued {
			t.Fatalf("snapshot shows more flushed requests (%d) than enqueued (%d)", m.FlushedRequests, m.Enqueued)
		}
		if m.FlushedValues > m.EnqueuedValues {
			t.Fatalf("snapshot shows more flushed values (%d) than enqueued (%d)", m.FlushedValues, m.EnqueuedValues)
		}
		if got := m.Enqueued - m.FlushedRequests; m.QueueDepth != got || m.QueueDepth < 0 {
			t.Fatalf("QueueDepth %d != Enqueued-FlushedRequests %d", m.QueueDepth, got)
		}
		if m.SizeFlushes+m.DeadlineFlushes+m.DrainFlushes != m.Flushes {
			t.Fatalf("flush causes don't sum: %+v", m)
		}
		var hist int64
		for _, c := range m.SizeHist {
			hist += c
		}
		if hist != m.Flushes {
			t.Fatalf("size histogram total %d != flushes %d", hist, m.Flushes)
		}
	}
	close(stop)
	wg.Wait()
	b.Close()
}

// TestConcurrentSnapshotsNeverDropOrDoubleCount races flushes against
// sink snapshots: Sum() may observe any admitted prefix mid-run, but
// once the batcher is closed the final sum must be bit-identical to
// parsum.Sum over exactly the accepted multiset — nothing dropped,
// nothing applied twice.
func TestConcurrentSnapshotsNeverDropOrDoubleCount(t *testing.T) {
	s := shard.New(shard.Options{Shards: 4})
	b := batch.New(s, batch.Options{QueueLen: 4, MaxBatch: 32, MaxDelay: 100 * time.Microsecond, Flushers: 2})

	const workers, perWorker = 4, 200
	accepted := make([][]float64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < perWorker; i++ {
				xs := make([]float64, 1+r.Intn(6))
				for j := range xs {
					xs[j] = math.Ldexp(r.Float64()-0.5, r.Intn(40)-20)
				}
				for {
					err := b.Add(context.Background(), xs)
					if err == nil {
						accepted[g] = append(accepted[g], xs...)
						break
					}
					if err != batch.ErrQueueFull {
						t.Errorf("Add: %v", err)
						return
					}
					time.Sleep(20 * time.Microsecond)
				}
			}
		}(g)
	}
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for i := 0; i < 50; i++ {
			_ = s.Sum() // must race cleanly with flushes
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	b.Close()
	<-snapDone

	var all []float64
	for _, a := range accepted {
		all = append(all, a...)
	}
	want := parsum.Sum(all)
	got := s.Sum()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("final sum %g (%x) != parsum.Sum over accepted multiset %g (%x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if !oracle.Faithful(all, got) {
		t.Fatalf("final sum %g is not even faithful for the accepted multiset", got)
	}
}

// TestContextAbandonStillApplies: a caller that gives up waiting gets
// ctx.Err(), but its admitted batch is still applied exactly once.
func TestContextAbandonStillApplies(t *testing.T) {
	sink := &recSink{}
	clk := batch.NewFakeClock()
	b := batch.New(sink, batch.Options{QueueLen: 4, MaxBatch: 1 << 20, MaxDelay: time.Millisecond, Clock: clk})
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- b.Add(ctx, []float64{42}) }()
	waitFor(t, "admission", func() bool { return b.Metrics().Enqueued == 1 })
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("abandoned Add: got %v, want context.Canceled", err)
	}
	clk.BlockUntilArmed(1)
	clk.Advance(time.Millisecond)
	waitFor(t, "abandoned batch to flush", func() bool {
		_, _, calls := sink.snapshot()
		return calls == 1
	})
	adds, _, _ := sink.snapshot()
	if len(adds) != 1 || adds[0] != 42 {
		t.Fatalf("abandoned batch not applied exactly once: %v", adds)
	}
}
