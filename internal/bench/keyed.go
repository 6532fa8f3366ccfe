package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parsum/internal/core"
	"parsum/internal/gen"
	"parsum/internal/keyed"
)

// KeyedPoint is one measured cell of the keyed-aggregation benchmark: a
// fixed value stream spread round-robin over a key population, ingested
// through a keyed store with a given partition count.
type KeyedPoint struct {
	Partitions int     `json:"partitions"`
	Keys       int     `json:"keys"`
	NsPerOp    int64   `json:"ns_per_op"` // full ingestion + snapshot
	MopsPerS   float64 `json:"mops_per_s"`
	Speedup    float64 `json:"speedup_vs_base"` // vs the same keys at 1 partition
}

// KeyedSnapshot is the recorded result of KeyedBench, written by
// `sumbench -figure keyed -jsonout` the way IngestSnapshot is for the
// ingest figure.
type KeyedSnapshot struct {
	N          int64        `json:"n"`
	Delta      int          `json:"delta"`
	Dist       string       `json:"dist"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Writers    int          `json:"writers"`
	Reps       int          `json:"reps"`
	Points     []KeyedPoint `json:"points"`
}

// keyedBenchChunk is how many values ride in one keyed batch — the
// grouped-flush shape the async front-end hands AddKeyedBatches.
const keyedBenchChunk = 256

// KeyedBench measures keyed-store ingestion throughput across partition
// counts × key populations: GOMAXPROCS writer goroutines pull
// pre-grouped keyed batches off a shared cursor and AddKeyedBatches them
// into a fresh store, then one Snapshot closes the cell. Every cell's
// per-key sums are checked bit-identical against the sequential sum of
// that key's multiset — a throughput number for wrong bits would be
// meaningless — and a mismatch panics.
func KeyedBench(n int64, delta int, partitionList, keyCounts []int, reps int) KeyedSnapshot {
	if reps < 1 {
		reps = 1
	}
	for _, p := range partitionList {
		if p < 1 {
			panic(fmt.Sprintf("bench: keyed partition count %d < 1", p))
		}
	}
	for _, k := range keyCounts {
		if k < 1 {
			panic(fmt.Sprintf("bench: keyed key count %d < 1", k))
		}
	}
	writers := runtime.GOMAXPROCS(0)
	snap := KeyedSnapshot{
		N:          n,
		Delta:      delta,
		Dist:       gen.Random.String(),
		GoMaxProcs: writers,
		Writers:    writers,
		Reps:       reps,
	}
	xs := gen.New(gen.Config{Dist: gen.Random, N: n, Delta: delta, Seed: 29}).Slice()
	for _, nkeys := range keyCounts {
		// Deal values round-robin to keys, then chunk each key's run into
		// keyed batches — and derive the per-key oracle from the same
		// dealt slices.
		perKey := make([][]float64, nkeys)
		for i, x := range xs {
			k := i % nkeys
			perKey[k] = append(perKey[k], x)
		}
		keys := make([]string, nkeys)
		want := make([]float64, nkeys)
		var work []keyed.Batch
		for k, vs := range perKey {
			keys[k] = fmt.Sprintf("key-%06d", k)
			want[k] = core.Sum(vs)
			for lo := 0; lo < len(vs); lo += keyedBenchChunk {
				hi := min(lo+keyedBenchChunk, len(vs))
				work = append(work, keyed.Batch{Key: keys[k], Values: vs[lo:hi]})
			}
		}
		for _, parts := range partitionList {
			best := time.Duration(1<<63 - 1)
			for r := 0; r < reps; r++ {
				d := keyedOnce(parts, writers, work, keys, want)
				if d < best {
					best = d
				}
			}
			snap.Points = append(snap.Points, KeyedPoint{
				Partitions: parts,
				Keys:       nkeys,
				NsPerOp:    best.Nanoseconds(),
				MopsPerS:   float64(n) / best.Seconds() / 1e6,
			})
		}
	}
	// Speedup baseline: per key count, the lowest measured partition
	// count.
	for group := 0; group < len(snap.Points); group += len(partitionList) {
		g := snap.Points[group : group+len(partitionList)]
		base, baseP := int64(0), 0
		for _, p := range g {
			if base == 0 || p.Partitions < baseP {
				base, baseP = p.NsPerOp, p.Partitions
			}
		}
		for i := range g {
			g[i].Speedup = float64(base) / float64(g[i].NsPerOp)
		}
	}
	return snap
}

// keyedOnce times one full keyed ingestion: writers pull batches off a
// shared cursor, group a small run of them, and AddKeyedBatches the
// group — then a Snapshot folds every key and the result is verified
// bit-identical to the per-key oracle.
func keyedOnce(parts, writers int, work []keyed.Batch, keys []string, want []float64) time.Duration {
	s := keyed.New(keyed.Options{Partitions: parts})
	const group = 8 // batches grouped per AddKeyedBatches call
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(group)) - group
				if lo >= len(work) {
					return
				}
				hi := min(lo+group, len(work))
				s.AddKeyedBatches(work[lo:hi])
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	d := time.Since(start)
	if len(snap) != len(keys) {
		panic(fmt.Sprintf("bench: keyed parts=%d: %d keys served, want %d",
			parts, len(snap), len(keys)))
	}
	for k, key := range keys {
		got, ok := s.Sum(key)
		if !ok || math.Float64bits(got) != math.Float64bits(want[k]) {
			panic(fmt.Sprintf("bench: keyed parts=%d key=%s: sum %g != sequential %g",
				parts, key, got, want[k]))
		}
	}
	return d
}

// Table renders the snapshot as one experiment table.
func (s KeyedSnapshot) Table() Table {
	t := Table{
		Title:  fmt.Sprintf("T-KEYED — multi-key exact aggregation (n=%d, δ=%d, writers=%d, best of %d)", s.N, s.Delta, s.Writers, s.Reps),
		XLabel: "partitions/keys",
		Series: []string{"time", "Mops/s", "speedup"},
	}
	for _, p := range s.Points {
		t.Rows = append(t.Rows, Row{
			X: fmt.Sprintf("%d/%d", p.Partitions, p.Keys),
			Values: map[string]string{
				"time":    secs(time.Duration(p.NsPerOp)),
				"Mops/s":  fmt.Sprintf("%.1f", p.MopsPerS),
				"speedup": fmt.Sprintf("%.2fx", p.Speedup),
			},
		})
	}
	t.Notes = append(t.Notes,
		"values dealt round-robin over the key population, ingested as grouped keyed batches",
		"every cell's per-key sums verified bit-identical to the sequential sum before timing is reported")
	return t
}

// JSON renders the snapshot as indented JSON.
func (s KeyedSnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
