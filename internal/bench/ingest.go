package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parsum/internal/batch"
	"parsum/internal/core"
	"parsum/internal/gen"
	"parsum/internal/shard"
)

// IngestPoint is one measured cell of the concurrent-ingestion benchmark:
// a writer count and batch size, ingesting through a Sharded accumulator
// with one shard per writer. The async columns measure the
// same workload submitted through the internal/batch front-end (bounded
// queue, self-clocking group flush, writers retrying on rejection)
// instead of calling AddBatch directly.
type IngestPoint struct {
	Writers      int     `json:"writers"`
	Batch        int     `json:"batch"`
	NsPerOp      int64   `json:"ns_per_op"` // full ingestion + final Sum
	MopsPerS     float64 `json:"mops_per_s"`
	Speedup      float64 `json:"speedup_vs_base"` // vs the same batch at its lowest writer count
	AsyncNsPerOp int64   `json:"async_ns_per_op"`
	AsyncMops    float64 `json:"async_mops_per_s"`
	AsyncRatio   float64 `json:"async_vs_sync"` // AsyncMops / MopsPerS
}

// IngestSnapshot is the recorded result of IngestBench, written by
// `sumbench -figure ingest -jsonout` the way ParallelSnapshot is for the
// parallel figure.
type IngestSnapshot struct {
	N          int64         `json:"n"`
	Delta      int           `json:"delta"`
	Dist       string        `json:"dist"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Reps       int           `json:"reps"`
	Points     []IngestPoint `json:"points"`
}

// IngestBench measures sharded concurrent ingestion throughput across
// writer counts × batch sizes: writers pull batches off a shared cursor
// and AddBatch them into a shard.Sharded (one shard per writer), then one
// Sum() closes the cell. Every cell's result is checked bit-identical
// against the sequential one-shot sum — a throughput number for a wrong
// sum would be meaningless — and a mismatch panics.
func IngestBench(n int64, delta int, writerList, batchSizes []int, reps int) IngestSnapshot {
	if reps < 1 {
		reps = 1
	}
	for _, w := range writerList {
		if w < 1 {
			panic(fmt.Sprintf("bench: ingest writer count %d < 1", w))
		}
	}
	for _, b := range batchSizes {
		if b < 1 {
			panic(fmt.Sprintf("bench: ingest batch size %d < 1", b))
		}
	}
	snap := IngestSnapshot{
		N:          n,
		Delta:      delta,
		Dist:       gen.Random.String(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       reps,
	}
	xs := gen.New(gen.Config{Dist: gen.Random, N: n, Delta: delta, Seed: 23}).Slice()
	want := core.Sum(xs)
	for _, batch := range batchSizes {
		for _, w := range writerList {
			best := time.Duration(1<<63 - 1)
			bestAsync := best
			for r := 0; r < reps; r++ {
				d, got := ingestOnce(xs, w, batch)
				if math.Float64bits(got) != math.Float64bits(want) {
					panic(fmt.Sprintf("bench: ingest writers=%d batch=%d: sum %g != sequential %g",
						w, batch, got, want))
				}
				if d < best {
					best = d
				}
				d, got = ingestAsyncOnce(xs, w, batch)
				if math.Float64bits(got) != math.Float64bits(want) {
					panic(fmt.Sprintf("bench: async ingest writers=%d batch=%d: sum %g != sequential %g",
						w, batch, got, want))
				}
				if d < bestAsync {
					bestAsync = d
				}
			}
			syncMops := float64(n) / best.Seconds() / 1e6
			asyncMops := float64(n) / bestAsync.Seconds() / 1e6
			snap.Points = append(snap.Points, IngestPoint{
				Writers:      w,
				Batch:        batch,
				NsPerOp:      best.Nanoseconds(),
				MopsPerS:     syncMops,
				AsyncNsPerOp: bestAsync.Nanoseconds(),
				AsyncMops:    asyncMops,
				AsyncRatio:   asyncMops / syncMops,
			})
		}
	}
	// Speedup baseline: per batch, the lowest measured writer count.
	for batchStart := 0; batchStart < len(snap.Points); batchStart += len(writerList) {
		group := snap.Points[batchStart : batchStart+len(writerList)]
		base, baseW := int64(0), 0
		for _, p := range group {
			if base == 0 || p.Writers < baseW {
				base, baseW = p.NsPerOp, p.Writers
			}
		}
		for i := range group {
			group[i].Speedup = float64(base) / float64(group[i].NsPerOp)
		}
	}
	return snap
}

// ingestOnce times one full ingestion: w writer goroutines pull
// batch-sized ranges off a shared atomic cursor and AddBatch them into a
// fresh Sharded with one shard per writer, then Sum() folds and rounds.
func ingestOnce(xs []float64, writers, batch int) (time.Duration, float64) {
	s := shard.New(shard.Options{Shards: writers})
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr := s.Writer()
			for {
				lo := int(next.Add(int64(batch))) - batch
				if lo >= len(xs) {
					return
				}
				hi := min(lo+batch, len(xs))
				wr.AddBatch(xs[lo:hi])
			}
		}()
	}
	wg.Wait()
	got := s.Sum()
	return time.Since(start), got
}

// asyncPipeline is how many requests each async "writer" keeps in
// flight. Add is group commit — it returns only after the flush carrying
// its batch — so a writer submitting one batch at a time would wait out
// every flush alone, which is not what a loaded service sees: concurrent
// HTTP clients keep many requests pending, and those pile up into one
// group behind a busy flusher. Each writer therefore runs asyncPipeline
// submitter goroutines, the in-process analogue of that concurrency.
const asyncPipeline = 16

// ingestAsyncOnce times the same workload as ingestOnce submitted
// through the batch front-end: writers×asyncPipeline submitters enqueue
// batch-sized ranges into a bounded-queue Batcher (its GOMAXPROCS
// flushers each apply whatever is queued as one group) and retry on
// rejection — the in-process analogue of the HTTP client's 429/backoff
// loop. The final Sum closes the cell after Close drains the queue.
func ingestAsyncOnce(xs []float64, writers, batchSize int) (time.Duration, float64) {
	s := shard.New(shard.Options{Shards: writers})
	submitters := writers * asyncPipeline
	b := batch.New(func(group []batch.Request) error {
		for _, r := range group {
			s.AddBatch(r.Values)
		}
		return nil
	}, batch.Options{QueueLen: 4 * submitters})
	ctx := context.Background()
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(batchSize))) - batchSize
				if lo >= len(xs) {
					return
				}
				hi := min(lo+batchSize, len(xs))
				for {
					err := b.Add(ctx, xs[lo:hi])
					if err == nil {
						break
					}
					if !errors.Is(err, batch.ErrQueueFull) {
						panic("bench: " + err.Error())
					}
					// Park instead of spinning: on few cores a busy
					// retry loop starves the flusher it is waiting on.
					time.Sleep(20 * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	b.Close()
	got := s.Sum()
	return time.Since(start), got
}

// Table renders the snapshot as one experiment table.
func (s IngestSnapshot) Table() Table {
	t := Table{
		Title:  fmt.Sprintf("T-INGEST — sharded concurrent ingestion (n=%d, δ=%d, GOMAXPROCS=%d, best of %d)", s.N, s.Delta, s.GoMaxProcs, s.Reps),
		XLabel: "writers/batch",
		Series: []string{"time", "Mops/s", "speedup", "async Mops/s", "async/sync"},
	}
	for _, p := range s.Points {
		t.Rows = append(t.Rows, Row{
			X: fmt.Sprintf("%d/%d", p.Writers, p.Batch),
			Values: map[string]string{
				"time":         secs(time.Duration(p.NsPerOp)),
				"Mops/s":       fmt.Sprintf("%.1f", p.MopsPerS),
				"speedup":      fmt.Sprintf("%.2fx", p.Speedup),
				"async Mops/s": fmt.Sprintf("%.1f", p.AsyncMops),
				"async/sync":   fmt.Sprintf("%.2fx", p.AsyncRatio),
			},
		})
	}
	t.Notes = append(t.Notes,
		"one shard per writer; every cell's sum verified bit-identical to the sequential sum",
		"async = same workload through the internal/batch bounded-queue front-end (self-clocking group flush; writers retry on rejection)")
	return t
}

// JSON renders the snapshot as indented JSON.
func (s IngestSnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
