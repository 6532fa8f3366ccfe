package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"parsum"
	"parsum/internal/sumdclient"
	"parsum/internal/sumdsrv"
	"parsum/internal/wal"
)

// clients is the closed loop's client count: one per core of the 2-CPU
// machine the benchmark was sized on.
const clients = 2

// warmWrites is how many writes each client sends while setting up.
const warmWrites = 4

// ingest drives keyless sumdclient.AddBatch writes into one sumd with a
// write-ahead log.
type ingest struct {
	cfg       config
	name      string
	fsync     string // the WAL's fsync policy
	readEvery int    // each client reads the sum after this many writes
	pool      *pool
}

func newIngestBulk(cfg config) (workload, error) {
	p, err := newPool(16, 65536, cfg.seed, cfg.nproc)
	if err != nil {
		return nil, err
	}
	return &ingest{cfg: cfg, name: "ingest-bulk", fsync: "off", readEvery: 8, pool: p}, nil
}

// ingestNode is one sumd on a loopback listener with its clients.
type ingestNode struct {
	srv     *sumdsrv.Server
	http    *server
	clients []*sumdclient.Client
	counts  []map[int]int64 // per client: acknowledged writes per pool batch
}

func startSumd(opt sumdsrv.Options, tr *tracer) (*sumdsrv.Server, *server, error) {
	srv, err := sumdsrv.New(opt)
	if err != nil {
		return nil, nil, err
	}
	hs, err := serve(traceHandler(tr, "sumd", srv))
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, hs, nil
}

func (g *ingest) start(dir string, tr *tracer) (*ingestNode, error) {
	srv, hs, err := startSumd(sumdsrv.Options{WALDir: dir, WALFsync: g.fsync}, tr)
	if err != nil {
		return nil, err
	}
	n := &ingestNode{srv: srv, http: hs}
	hc := httpClient(tr)
	for c := 0; c < clients; c++ {
		n.clients = append(n.clients, sumdclient.New(hs.url, hc))
		n.counts = append(n.counts, map[int]int64{})
	}
	// The first requests: each client's warm-up writes and a read.
	ctx := context.Background()
	for c, cl := range n.clients {
		for j := 0; j < warmWrites; j++ {
			idx := (c*warmWrites + j) % len(g.pool.batches)
			if err := cl.AddBatch(ctx, g.pool.batches[idx]); err != nil {
				n.close()
				return nil, fmt.Errorf("warm-up write: %w", err)
			}
			n.counts[c][idx]++
		}
		if _, err := cl.Sum(ctx); err != nil {
			n.close()
			return nil, fmt.Errorf("warm-up read: %w", err)
		}
	}
	return n, nil
}

func (n *ingestNode) close() {
	n.http.close()
	n.srv.Close()
}

// want is the exact sum of every acknowledged write, rounded once.
func (n *ingestNode) want(p *pool) float64 {
	all := map[int]int64{}
	for _, m := range n.counts {
		for i, k := range m {
			all[i] += k
		}
	}
	return p.sum(all)
}

func (g *ingest) freshDir(tag string) (string, error) {
	dir := filepath.Join(g.cfg.workDir, fmt.Sprintf("wal-%s-%d-%s", g.name, os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}

func (g *ingest) load(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	var n *ingestNode
	var dir string
	defer func() { os.RemoveAll(dir) }()
	for r := 0; r < setupReps; r++ {
		var err error
		if dir, err = g.freshDir(fmt.Sprint(r)); err != nil {
			return nil, err
		}
		t := time.Now()
		if n, err = g.start(dir, tr); err != nil {
			return nil, err
		}
		ph.setup = append(ph.setup, time.Since(t).Seconds())
		if r < setupReps-1 {
			n.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	ctx := context.Background()
	plain := httpClient(nil)
	before, err := scrape(ctx, plain, n.http.url)
	if err != nil {
		n.close()
		return nil, err
	}

	rngs := clientRngs(g.cfg.seed)
	deadline := time.Now().Add(d)
	u0 := readUsage()
	ph.ops = closedLoop(clients, func(c, i int) (uint8, int, bool, bool) {
		cl := n.clients[c]
		if i%(g.readEvery+1) == g.readEvery {
			if time.Now().After(deadline) {
				return 0, 0, false, true
			}
			rctx, s := tr.root(ctx, spanClientRead)
			_, err := cl.Sum(rctx)
			tr.end(s)
			return opRead, 0, err == nil, false
		}
		if time.Now().After(deadline) {
			return 0, 0, false, true
		}
		idx := rngs[c].IntN(len(g.pool.batches))
		wctx, s := tr.root(ctx, spanClientWrite)
		err := cl.AddBatch(wctx, g.pool.batches[idx])
		tr.end(s)
		if err == nil {
			n.counts[c][idx]++
		}
		return opWrite, len(g.pool.batches[idx]), err == nil, false
	})
	usageLayers(ph, u0, readUsage())
	after, err := scrape(ctx, plain, n.http.url)
	if err != nil {
		n.close()
		return nil, err
	}
	g.walCounters(ph, before, after)

	want := n.want(g.pool)
	got, err := n.clients[0].Sum(ctx)
	n.close()
	if err != nil {
		return nil, fmt.Errorf("final read: %w", err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		ph.mismatch("final sum %x, exact sum of acknowledged writes %x", math.Float64bits(got), math.Float64bits(want))
	}
	return ph, nil
}

// clientRngs returns one generator per client, so each client's sequence
// of inputs depends on the seed and the client only.
func clientRngs(seed uint64) []*rand.Rand {
	rs := make([]*rand.Rand, clients)
	for c := range rs {
		rs[c] = rand.New(rand.NewPCG(seed, uint64(c)+1))
	}
	return rs
}

// walCounters records the journal's counters per acknowledged write and
// value over the load.
func (g *ingest) walCounters(ph *phase, before, after promText) {
	var writes, vals float64
	for _, o := range ph.ops {
		if o.ok && o.kind == opWrite {
			writes++
			vals += float64(o.values)
		}
	}
	for _, c := range []struct {
		name, family string
		per          float64
	}{
		{"wal.fsyncs_per_write", "sumd_wal_fsyncs_total", writes},
		{"wal.commits_per_write", "sumd_wal_commits_total", writes},
		{"wal.bytes_per_value", "sumd_wal_bytes_total", vals},
	} {
		d, ok := counterDelta([]promText{before}, []promText{after}, c.family)
		if !ok {
			ph.absent[c.name] = true
			continue
		}
		ph.layers[c.name] = d / c.per
	}
}

func (g *ingest) probes(ph *phase) error {
	kernelProbes(ph, g.pool.all, g.pool.all, g.cfg.nproc)
	batch := g.pool.batches[0]
	pol, err := wal.ParsePolicy(g.fsync)
	if err != nil {
		return err
	}
	// Journal probes: appending and committing one write, and reopening
	// (scanning) the log they wrote.
	reps := max(32, min(500, (32<<20)/(8*len(batch))))
	dir, err := g.freshDir("probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(wal.Options{Dir: dir, Fsync: pol})
	if err != nil {
		return err
	}
	var commitErr error
	ns := timeReps(reps, func(int) {
		l.AppendBatch(batch, false)
		if err := l.Commit(); err != nil {
			commitErr = err
		}
	})
	if err := l.Close(); err != nil || commitErr != nil {
		return fmt.Errorf("wal probe: %v %v", err, commitErr)
	}
	ph.layers["wal.append_commit_p50_us"] = pctUs(ns, 50)
	// Replaying a journal: reopening the probe's own log. (wal.Open holds
	// every record in memory, so the multi-GB log of the load is not
	// reopened.)
	var opens []float64
	for r := 0; r < 3; r++ {
		t := time.Now()
		l, _, err := wal.Open(wal.Options{Dir: dir, Fsync: pol})
		if err != nil {
			return err
		}
		opens = append(opens, time.Since(t).Seconds())
		if err := l.Close(); err != nil {
			return err
		}
	}
	ph.layers["wal.open_s"] = median(opens)

	if err := g.allocProbe(ph, batch, reps); err != nil {
		return err
	}

	// The sharded store alone: the workload's writes, and a sum after
	// every readEvery of them.
	sh, err := parsum.NewSharded(parsum.ShardedOptions{})
	if err != nil {
		return err
	}
	every := g.readEvery
	var adds, sums []int64
	for i := 0; i < max(256, 1<<20/len(batch)); i++ {
		b := g.pool.batches[i%len(g.pool.batches)]
		t := time.Now()
		sh.AddBatch(b)
		adds = append(adds, int64(time.Since(t)))
		if i%every == every-1 {
			t := time.Now()
			sh.Sum()
			sums = append(sums, int64(time.Since(t)))
		}
	}
	ph.layers["shard.addbatch_p50_us"] = pctUs(adds, 50)
	ph.layers["shard.sum_p50_us"] = pctUs(sums, 50)
	return nil
}

// allocProbe serves the workload's write to a sumd configured like the
// workload's, from memory, and records the heap allocations per write.
func (g *ingest) allocProbe(ph *phase, batch []float64, reps int) error {
	dir, err := g.freshDir("alloc")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := sumdsrv.New(sumdsrv.Options{WALDir: dir, WALFsync: g.fsync})
	if err != nil {
		return err
	}
	defer srv.Close()
	body := make([]byte, 8*len(batch))
	for i, x := range batch {
		binary.LittleEndian.PutUint64(body[8*i:], math.Float64bits(x))
	}
	reqs := make([]*http.Request, reps)
	recs := make([]*httptest.ResponseRecorder, reps)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/add", bytes.NewReader(body))
		reqs[i].Header.Set("Content-Type", "application/octet-stream")
		recs[i] = httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		srv.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&m1)
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			return fmt.Errorf("alloc probe: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	ph.layers["sumdsrv.allocs_per_add"] = float64(m1.Mallocs-m0.Mallocs) / float64(reps)
	ph.layers["sumdsrv.alloc_bytes_per_add"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reps)
	return nil
}
