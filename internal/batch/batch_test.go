// Unit tests for the batcher: self-clocked coalescing behind a busy
// flusher, the sink's error reaching every waiter of its group,
// bounded-queue rejection with untouched state, drain-on-Close, the
// zero-allocation enqueue hot path, and the consistency invariants of
// the metrics snapshot under concurrency. Tests that pin a group's
// composition run one flusher (GOMAXPROCS 1 while the batcher starts)
// and hold flushes open on a gate instead of sleeping.
package batch_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"parsum"
	"parsum/internal/batch"
	"parsum/internal/oracle"
	"parsum/internal/shard"
)

// recSink records every flush group. When gate is non-nil every flush
// waits until it is closed; entered, when non-nil, is signalled first.
type recSink struct {
	mu     sync.Mutex
	adds   []float64
	subs   []float64
	groups [][]batch.Request // every group, values still caller-owned
	err    error             // returned by every flush when non-nil

	gate    chan struct{}
	entered chan struct{}
}

func (r *recSink) flush(group []batch.Request) error {
	if r.entered != nil {
		r.entered <- struct{}{}
	}
	if r.gate != nil {
		<-r.gate
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.groups = append(r.groups, append([]batch.Request(nil), group...))
	if r.err != nil {
		return r.err
	}
	for _, q := range group {
		if q.Sub {
			r.subs = append(r.subs, q.Values...)
		} else {
			r.adds = append(r.adds, q.Values...)
		}
	}
	return nil
}

func (r *recSink) snapshot() (adds, subs []float64, calls int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.adds...), append([]float64(nil), r.subs...), len(r.groups)
}

// groupSizes lists the request count of every flush group so far.
func (r *recSink) groupSizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n []int
	for _, g := range r.groups {
		n = append(n, len(g))
	}
	return n
}

// newOneFlusher starts a batcher with a single flusher, so the tests
// below can pin which requests share a group.
func newOneFlusher(sink batch.Sink, opt batch.Options) *batch.Batcher {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return batch.New(sink, opt)
}

// shardSink applies every group to s.
func shardSink(s *shard.Sharded) batch.Sink {
	return func(group []batch.Request) error {
		for _, q := range group {
			if q.Sub {
				s.SubBatch(q.Values)
			} else {
				s.AddBatch(q.Values)
			}
		}
		return nil
	}
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

// parkFirst submits xs and returns once the single flusher is parked on
// the gate with it; the returned channel yields the Add's result.
func parkFirst(t *testing.T, b *batch.Batcher, sink *recSink, xs []float64) chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- b.Add(context.Background(), xs) }()
	<-sink.entered
	return errc
}

// TestLoneRequestFlushesAlone: with nothing else queued a request is
// flushed at once, in a group of its own — no timer holds it back.
func TestLoneRequestFlushesAlone(t *testing.T) {
	sink := &recSink{}
	b := batch.New(sink.flush, batch.Options{})
	defer b.Close()
	for i := 0; i < 3; i++ {
		if err := b.Add(context.Background(), seq(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sink.groupSizes(); len(got) != 3 || got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("group sizes %v, want three groups of one", got)
	}
}

// TestSizeFlushCoalesces proves the self-clocking: while the flusher is
// busy with request A, four more requests queue up, and the next flush
// takes all four as one group — every Add returning only after it
// (group commit).
func TestSizeFlushCoalesces(t *testing.T) {
	sink := &recSink{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	b := newOneFlusher(sink.flush, batch.Options{QueueLen: 16})
	defer b.Close()

	errA := parkFirst(t, b, sink, seq(100, 2))
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
	waitFor(t, "four queued requests", func() bool { return b.Metrics().QueueDepth == 5 })
	close(sink.gate)
	wg.Wait()
	if err := <-errA; err != nil {
		t.Fatal(err)
	}

	if got := sink.groupSizes(); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("group sizes %v, want [1 4]", got)
	}
	m := b.Metrics()
	if m.Flushes != 2 || m.FlushedRequests != 5 || m.FlushedValues != 10 || m.QueueDepth != 0 {
		t.Fatalf("flush counters inconsistent: %+v", m)
	}
}

// TestSinkErrorReachesEveryWaiter: a failed flush answers every request
// of its group with the sink's error, and the next group is unaffected.
func TestSinkErrorReachesEveryWaiter(t *testing.T) {
	boom := errors.New("journal down")
	sink := &recSink{gate: make(chan struct{}), entered: make(chan struct{}, 8), err: boom}
	b := newOneFlusher(sink.flush, batch.Options{QueueLen: 8})
	defer b.Close()

	errA := parkFirst(t, b, sink, []float64{1})
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- b.Add(context.Background(), []float64{2}) }()
	}
	waitFor(t, "two queued requests", func() bool { return b.Metrics().QueueDepth == 3 })
	close(sink.gate)
	for _, err := range []error{<-errA, <-errs, <-errs} {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter got %v, want the sink's error", err)
		}
	}
	sink.mu.Lock()
	sink.err = nil
	sink.mu.Unlock()
	if err := b.Add(context.Background(), []float64{3}); err != nil {
		t.Fatalf("add after the failed group: %v", err)
	}
	if adds, _, _ := sink.snapshot(); len(adds) != 1 || adds[0] != 3 {
		t.Fatalf("sink applied %v, want only the value after the failure", adds)
	}
	if m := b.Metrics(); m.FlushedRequests != 4 || m.QueueDepth != 0 {
		t.Fatalf("failed requests not counted as flushed: %+v", m)
	}
}

// TestRejectLeavesStateUntouched fills the bounded queue behind a
// blocked flush and asserts the overflowing request fails fast with
// ErrQueueFull, mutates nothing, and is invisible to the sink forever —
// the exactness half of the 429 contract.
func TestRejectLeavesStateUntouched(t *testing.T) {
	sink := &recSink{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	b := newOneFlusher(sink.flush, batch.Options{QueueLen: 2})
	defer b.Close()

	ctx := context.Background()
	results := make(chan error, 3)
	go func() { results <- b.Add(ctx, []float64{1}) }()
	<-sink.entered // the flusher is now blocked inside the sink holding request 1

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

	close(sink.gate) // release the sink; everything admitted must complete
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
// group and asserts each request reaches the sink with its own kind.
func TestSubSplitsFromAdds(t *testing.T) {
	sink := &recSink{}
	b := batch.New(sink.flush, batch.Options{QueueLen: 16})
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

// TestSliceSinkZeroCopyPath checks a multi-request group reaches the
// sink as the callers' own slices: no concatenation, no copy.
func TestSliceSinkZeroCopyPath(t *testing.T) {
	sink := &recSink{gate: make(chan struct{}), entered: make(chan struct{}, 4)}
	b := newOneFlusher(sink.flush, batch.Options{QueueLen: 16})
	defer b.Close()

	errA := parkFirst(t, b, sink, []float64{0})
	xs := [][]float64{seq(10, 2), seq(20, 2)}
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func(i int) { defer wg.Done(); _ = b.Add(context.Background(), xs[i]) }(i)
	}
	waitFor(t, "two queued requests", func() bool { return b.Metrics().QueueDepth == 3 })
	close(sink.gate)
	wg.Wait()
	<-errA
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.groups) != 2 || len(sink.groups[1]) != 2 {
		t.Fatalf("want a second group of two requests, got %d groups", len(sink.groups))
	}
	for _, q := range sink.groups[1] {
		if &q.Values[0] != &xs[0][0] && &q.Values[0] != &xs[1][0] {
			t.Fatalf("group request %v is a copy, not a caller's slice", q.Values)
		}
	}
}

// TestCloseDrainsEverythingAdmitted parks the flusher, queues many
// requests behind it, then closes: every admitted request must complete
// with nil (its values applied) and post-Close submissions must fail
// with ErrClosed.
func TestCloseDrainsEverythingAdmitted(t *testing.T) {
	sink := &recSink{gate: make(chan struct{}), entered: make(chan struct{}, 64)}
	b := newOneFlusher(sink.flush, batch.Options{QueueLen: 64})

	const reqs = 32
	errA := parkFirst(t, b, sink, seq(-1, 1))
	var wg sync.WaitGroup
	errs := make([]error, reqs)
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Add(context.Background(), seq(i, 1))
		}(i)
	}
	waitFor(t, "all requests admitted", func() bool { return b.Metrics().Enqueued == reqs+1 })
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	close(sink.gate)
	<-closed
	wg.Wait()
	if err := <-errA; err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted request %d got %v after Close, want nil", i, err)
		}
	}
	adds, _, _ := sink.snapshot()
	if len(adds) != reqs+1 {
		t.Fatalf("sink saw %d values, want %d", len(adds), reqs+1)
	}
	m := b.Metrics()
	if m.QueueDepth != 0 || m.FlushedRequests != reqs+1 {
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
	b := batch.New(sink.flush, batch.Options{})
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
// channels recycle through a pool, and each flusher reuses its group
// buffer, which carries the caller's slice itself.
func TestSubmitZeroAlloc(t *testing.T) {
	var mu sync.Mutex
	var total float64
	sink := func(group []batch.Request) error {
		mu.Lock()
		defer mu.Unlock()
		for _, q := range group {
			for _, v := range q.Values {
				total += v
			}
		}
		return nil
	}
	b := batch.New(sink, batch.Options{QueueLen: 8})
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
}

// TestMetricsInvariantsUnderLoad hammers the batcher from several
// goroutines while a reader takes snapshots, asserting on every single
// snapshot the invariants documented on Metrics. Under -race this is
// also the torn-counter regression test: with per-field atomics a
// snapshot could observe flushes ahead of enqueues.
func TestMetricsInvariantsUnderLoad(t *testing.T) {
	s := shard.New(shard.Options{Shards: 2})
	b := batch.New(shardSink(s), batch.Options{QueueLen: 8})

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
	b := batch.New(shardSink(s), batch.Options{QueueLen: 4})

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
	sink := &recSink{gate: make(chan struct{}), entered: make(chan struct{}, 4)}
	b := newOneFlusher(sink.flush, batch.Options{QueueLen: 4})
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- b.Add(ctx, []float64{42}) }()
	<-sink.entered // its flush is in progress, held on the gate
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("abandoned Add: got %v, want context.Canceled", err)
	}
	close(sink.gate)
	waitFor(t, "abandoned batch to flush", func() bool {
		adds, _, _ := sink.snapshot()
		return len(adds) == 1
	})
	adds, _, _ := sink.snapshot()
	if adds[0] != 42 {
		t.Fatalf("abandoned batch not applied exactly once: %v", adds)
	}
}
