// Package batch implements the ingestion front-end of the aggregation
// service: a self-clocking group-commit batcher between request handlers
// and the exact accumulators. Handlers enqueue requests into a bounded
// queue; GOMAXPROCS flusher goroutines each take everything queued the
// moment they are free and hand it, as one group, to the Sink callback.
// No timer and no size trigger decide when to flush: a lone request
// flushes at once, and under load requests pile up behind busy flushers,
// so the group grows with the load. The Sink's error is returned to
// every request of its group. When the queue is full the enqueue fails
// fast with ErrQueueFull and nothing is applied, so the caller can
// answer 429 instead of blocking the accept loop.
//
// Batching is safe for exactness, not merely for throughput: the sink is
// a superaccumulator (a commutative group under exact addition), so any
// coalescing, reordering across flushers, or add/sub regrouping the
// batcher performs yields a final sum bit-identical to summing the
// accepted multiset sequentially. Admission is the only observable
// effect — which is exactly what the reply reports: when Add returns
// nil, the sink has applied the values, so any subsequent Sum observes
// them (group commit).
//
// Every counter lives in one mutex-guarded Metrics struct, updated on
// the enqueue and flush paths and copied out atomically by Metrics(),
// so a snapshot can never report more flushes than enqueues (see the
// invariants on Metrics). The enqueue hot path performs no allocations:
// items are recycled through a sync.Pool and replies travel over pooled
// one-slot channels.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"parsum/internal/keyed"
)

// ErrQueueFull is returned by Add/Sub when the bounded queue is at
// capacity. The batch was not admitted and the sink is untouched; the
// caller should shed load (HTTP 429) or back off and retry.
var ErrQueueFull = errors.New("batch: queue full")

// ErrClosed is returned by Add/Sub after Close.
var ErrClosed = errors.New("batch: batcher closed")

// Request is one admitted submission as the Sink sees it.
type Request struct {
	Key    string // "" for the single global sum
	Values []float64
	Sub    bool // exact deletion instead of accumulation
}

// Sink applies one flush group. A nil error means every request of the
// group took effect; an error means none did, and the batcher returns it
// to every request's submitter. The group slice and its Values are only
// valid during the call.
type Sink func(group []Request) error

// Options configures a Batcher. The zero value is usable.
type Options struct {
	// QueueLen bounds the number of admitted-but-unflushed requests;
	// beyond it Add/Sub fail fast with ErrQueueFull. 0 means 256.
	QueueLen int
}

// item is one admitted request. done is a one-slot reply channel (send,
// never close, so items recycle through the pool).
type item struct {
	Request
	done chan error
}

var itemPool = sync.Pool{New: func() any { return &item{done: make(chan error, 1)} }}

// Batcher is the bounded-queue, self-clocking ingestion front-end. All
// methods are safe for concurrent use.
type Batcher struct {
	sink     Sink
	opt      Options
	flushers int
	ch       chan *item
	stop     chan struct{}
	wg       sync.WaitGroup
	once     sync.Once

	// mu guards started, closed and every counter in m; the enqueue
	// path takes it once (the queue send happens inside, non-blocking),
	// the flush path once per flush.
	mu      sync.Mutex
	started bool
	closed  bool
	m       Metrics
}

// New returns a Batcher flushing into sink with one flusher per
// GOMAXPROCS at the time of the call: a flusher spends part of each
// flush waiting (on the journal, on accumulator locks), so a single one
// serializes groups a second core could apply. The flushers start with
// the first admitted request, so a server that never ingests raw
// batches (a proxy backend, say) starts none. Stop it with Close.
func New(sink Sink, opt Options) *Batcher {
	if opt.QueueLen <= 0 {
		opt.QueueLen = 256
	}
	return &Batcher{
		sink:     sink,
		opt:      opt,
		flushers: runtime.GOMAXPROCS(0),
		ch:       make(chan *item, opt.QueueLen),
		stop:     make(chan struct{}),
	}
}

// Options returns the resolved configuration.
func (b *Batcher) Options() Options { return b.opt }

// Metrics returns a consistent snapshot of every counter (see the
// invariants documented on Metrics). It allocates nothing.
func (b *Batcher) Metrics() Metrics {
	b.mu.Lock()
	m := b.m
	b.mu.Unlock()
	return m
}

// Add submits xs for exact accumulation. It returns nil only after the
// flush containing xs has been applied, the Sink's error when that flush
// failed (nothing applied), ErrQueueFull when the queue was at capacity
// (state untouched), or ctx's error if the caller gave up waiting — in
// that last case the batch was admitted and will still be flushed. An
// empty xs is a no-op.
func (b *Batcher) Add(ctx context.Context, xs []float64) error {
	return b.submit(ctx, "", xs, false)
}

// Sub submits xs for exact deletion — identical admission and completion
// semantics to Add.
func (b *Batcher) Sub(ctx context.Context, xs []float64) error {
	return b.submit(ctx, "", xs, true)
}

// AddKeyed submits xs for exact accumulation under key, with Add's
// admission and completion semantics. An empty xs is NOT a no-op — it
// registers the key at exact +0, mirroring keyed.Store.Add. Invalid keys
// (empty, or longer than keyed.MaxKeyLen) are rejected here with an
// error, not a panic: by the flush there is no caller left to answer to.
func (b *Batcher) AddKeyed(ctx context.Context, key string, xs []float64) error {
	if err := checkKey(key); err != nil {
		return err
	}
	return b.submit(ctx, key, xs, false)
}

// SubKeyed submits xs for exact deletion under key — the group inverse
// of AddKeyed, with identical admission semantics.
func (b *Batcher) SubKeyed(ctx context.Context, key string, xs []float64) error {
	if err := checkKey(key); err != nil {
		return err
	}
	return b.submit(ctx, key, xs, true)
}

func checkKey(key string) error {
	if key == "" {
		return fmt.Errorf("batch: empty key")
	}
	if len(key) > keyed.MaxKeyLen {
		return fmt.Errorf("batch: key length %d exceeds limit %d", len(key), keyed.MaxKeyLen)
	}
	return nil
}

func (b *Batcher) submit(ctx context.Context, key string, xs []float64, sub bool) error {
	it, err := b.enqueue(key, xs, sub)
	if it == nil {
		return err
	}
	select {
	case err := <-it.done:
		it.Request = Request{}
		itemPool.Put(it)
		return err
	case <-ctx.Done():
		// Admitted but the caller stopped waiting: a flusher will still
		// apply the batch and send the reply; the item is left to the GC
		// since its reply is never consumed.
		return ctx.Err()
	}
}

// enqueue admits one request, or fails fast. It returns a nil item on
// every failure and on empty unkeyed batches (err == nil then); an empty
// keyed batch is still admitted — registering the key is state.
func (b *Batcher) enqueue(key string, xs []float64, sub bool) (*item, error) {
	if len(xs) == 0 && key == "" {
		return nil, nil
	}
	it := itemPool.Get().(*item)
	it.Request = Request{Key: key, Values: xs, Sub: sub}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		it.Request = Request{}
		itemPool.Put(it)
		return nil, ErrClosed
	}
	if !b.started {
		b.started = true
		b.wg.Add(b.flushers)
		for i := 0; i < b.flushers; i++ {
			go b.runFlusher()
		}
	}
	select {
	case b.ch <- it:
		b.m.Enqueued++
		b.m.EnqueuedValues += int64(len(xs))
		b.m.QueueDepth++
		if key != "" {
			b.m.KeyedEnqueued++
		}
		b.mu.Unlock()
		return it, nil
	default:
		b.m.Rejected++
		b.mu.Unlock()
		it.Request = Request{}
		itemPool.Put(it)
		return nil, ErrQueueFull
	}
}

// Close stops admission, flushes everything already admitted, and waits
// for the flushers to exit. Safe to call more than once.
func (b *Batcher) Close() {
	b.once.Do(func() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		// No enqueue can be in flight past the closed check now (the
		// check and the send share b.mu), so the flushers see a frozen
		// queue.
		close(b.stop)
		b.wg.Wait()
	})
}

// runFlusher is one flusher: it blocks until a request arrives, takes
// everything queued behind it, and flushes the lot at once. While it is
// busy, new requests wait in the queue for the next free flusher, so the
// group size follows the load with no timer involved.
func (b *Batcher) runFlusher() {
	defer b.wg.Done()
	var items []*item
	var group []Request
	for {
		stopping := false
		select {
		case it := <-b.ch:
			items = append(items, it)
		case <-b.stop:
			stopping = true
		}
		// With several flushers draining concurrently each item still
		// lands in exactly one group.
	drain:
		for {
			select {
			case it := <-b.ch:
				items = append(items, it)
			default:
				break drain
			}
		}
		group = b.flush(items, group)
		clear(items)
		items = items[:0]
		if stopping {
			return
		}
	}
}

// flush hands one group to the sink, records the counters under one
// lock, and then completes every reply with the sink's error. Replies
// come last, so by the time a caller's Add returns, both the sink and
// the metrics already reflect its batch. group is the flusher's reusable
// Request buffer; flush returns it for the next call.
func (b *Batcher) flush(items []*item, group []Request) []Request {
	if len(items) == 0 {
		return group
	}
	nv, keyedN := 0, 0
	for _, it := range items {
		group = append(group, it.Request)
		nv += len(it.Values)
		if it.Key != "" {
			keyedN++
		}
	}
	start := time.Now()
	err := b.sink(group)
	dur := time.Since(start)
	// Drop the value references before reusing the buffer: the
	// caller-owned slices must not stay pinned past the flush.
	clear(group)

	b.mu.Lock()
	b.m.Flushes++
	b.m.KeyedFlushedRequests += int64(keyedN)
	b.m.FlushedRequests += int64(len(items))
	b.m.FlushedValues += int64(nv)
	b.m.QueueDepth -= int64(len(items))
	b.m.FlushNs += dur.Nanoseconds()
	b.m.SizeHist[bucketIdx(SizeBuckets[:], float64(nv))]++
	b.m.LatencyHist[bucketIdx(LatencyBuckets[:], dur.Seconds())]++
	b.mu.Unlock()

	for _, it := range items {
		it.done <- err
	}
	return group[:0]
}
