package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"time"

	"parsum"
	"parsum/internal/proxy"
	"parsum/internal/sumdclient"
	"parsum/internal/sumdsrv"
)

const (
	numKeys   = 4096
	zipfS     = 1.1 // Zipf exponent of the key draws
	backends  = 3
	readEvery = 8 // one op in readEvery is a keyed read
)

// proxyKeyed drives keyed 64-value writes and reads through proxy.New
// over three in-memory sumd backends.
type proxyKeyed struct {
	cfg  config
	pool *pool
	keys []string
}

func newProxyKeyed(cfg config) (workload, error) {
	p, err := newPool(1024, 64, cfg.seed, cfg.nproc)
	if err != nil {
		return nil, err
	}
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	return &proxyKeyed{cfg: cfg, pool: p, keys: keys}, nil
}

// keyDraws returns one Zipf key sampler per client, seeded by the seed
// and the client, and the generators behind them.
func keyDraws(seed uint64) ([]*rand.Zipf, []*rand.Rand) {
	rs := clientRngs(seed)
	zs := make([]*rand.Zipf, len(rs))
	for c, r := range rs {
		zs[c] = rand.NewZipf(r, zipfS, 1, numKeys-1)
	}
	return zs, rs
}

// fleet is the proxy, its backends and the benchmark's clients.
type fleet struct {
	proxy    *proxy.Proxy
	front    *server
	backends []*server
	servers  []*sumdsrv.Server
	clients  []*sumdclient.Client
	counts   []map[string]map[int]int64 // per client: key → pool batch → acknowledged writes
}

func (f *fleet) close() {
	if f.front != nil {
		f.front.close()
	}
	if f.proxy != nil {
		f.proxy.Close()
	}
	for i, b := range f.backends {
		b.close()
		f.servers[i].Close()
	}
}

func (f *fleet) ack(c int, key string, idx int) {
	m := f.counts[c][key]
	if m == nil {
		m = map[int]int64{}
		f.counts[c][key] = m
	}
	m[idx]++
}

func (pk *proxyKeyed) start(tr *tracer) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < backends; i++ {
		srv, hs, err := startSumd(sumdsrv.Options{}, tr)
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers, f.backends = append(f.servers, srv), append(f.backends, hs)
		urls = append(urls, hs.url)
	}
	opt := proxy.Options{Backends: urls}
	if tr != nil {
		opt.Transport = func(string) http.RoundTripper { return legTransport{t: tr, base: http.DefaultTransport} }
	}
	p, err := proxy.New(opt)
	if err != nil {
		f.close()
		return nil, err
	}
	f.proxy = p
	if f.front, err = serve(traceHandler(tr, "proxy", p)); err != nil {
		f.close()
		return nil, err
	}
	hc := httpClient(tr)
	for c := 0; c < clients; c++ {
		f.clients = append(f.clients, sumdclient.New(f.front.url, hc))
		f.counts = append(f.counts, map[string]map[int]int64{})
	}
	ctx := context.Background()
	for c, cl := range f.clients {
		for j := 0; j < warmWrites; j++ {
			key, idx := pk.keys[c*warmWrites+j], c*warmWrites+j
			if err := cl.AddKeyed(ctx, key, pk.pool.batches[idx]); err != nil {
				f.close()
				return nil, fmt.Errorf("warm-up write: %w", err)
			}
			f.ack(c, key, idx)
		}
		if _, _, err := cl.SumKey(ctx, pk.keys[c*warmWrites]); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up read: %w", err)
		}
	}
	return f, nil
}

func (pk *proxyKeyed) load(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	var f *fleet
	for r := 0; r < setupReps; r++ {
		t := time.Now()
		var err error
		if f, err = pk.start(tr); err != nil {
			return nil, err
		}
		ph.setup = append(ph.setup, time.Since(t).Seconds())
		if r < setupReps-1 {
			f.close()
		}
	}
	defer f.close()
	ctx := context.Background()
	plain := httpClient(nil)
	before, err := pk.scrapeAll(ctx, plain, f)
	if err != nil {
		return nil, err
	}

	zs, rs := keyDraws(pk.cfg.seed)
	last := make([]string, clients) // each client's last acknowledged key
	deadline := time.Now().Add(d)
	u0 := readUsage()
	ph.ops = closedLoop(clients, func(c, i int) (uint8, int, bool, bool) {
		if time.Now().After(deadline) {
			return 0, 0, false, true
		}
		cl := f.clients[c]
		if i%readEvery == readEvery-1 && last[c] != "" {
			rctx, s := tr.root(ctx, spanClientRead)
			_, found, err := cl.SumKey(rctx, last[c])
			tr.end(s)
			return opRead, 0, err == nil && found, false
		}
		key := pk.keys[zs[c].Uint64()]
		idx := rs[c].IntN(len(pk.pool.batches))
		wctx, s := tr.root(ctx, spanClientWrite)
		err := cl.AddKeyed(wctx, key, pk.pool.batches[idx])
		tr.end(s)
		if err == nil {
			f.ack(c, key, idx)
			last[c] = key
		}
		return opWrite, len(pk.pool.batches[idx]), err == nil, false
	})
	usageLayers(ph, u0, readUsage())
	after, err := pk.scrapeAll(ctx, plain, f)
	if err != nil {
		return nil, err
	}
	pk.counters(ph, before, after)
	if err := pk.check(ctx, ph, f, plain); err != nil {
		return nil, err
	}
	return ph, nil
}

// scrapeAll reads /metrics from the proxy, then from each backend.
func (pk *proxyKeyed) scrapeAll(ctx context.Context, hc *http.Client, f *fleet) ([]promText, error) {
	var out []promText
	for _, s := range append([]*server{f.front}, f.backends...) {
		p, err := scrape(ctx, hc, s.url)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// counters records the proxy's and the backends' counts over the load.
func (pk *proxyKeyed) counters(ph *phase, before, after []promText) {
	set := func(name string, v float64, ok bool) {
		if !ok {
			ph.absent[name] = true
			return
		}
		ph.layers[name] = v
	}
	legs, ok1 := counterDelta(before[:1], after[:1], "sumproxy_write_legs_total")
	writes, ok2 := counterDelta(before[:1], after[:1], "sumproxy_writes_total")
	set("proxy.legs_per_write", legs/writes, ok1 && ok2 && writes > 0)
	// A missing error series, in a family that is there, means no leg failed.
	const errSeries = `sumproxy_write_legs_total{outcome="error"}`
	set("proxy.legs_failed", after[0][errSeries]-before[0][errSeries], ok1)
	v, ok := counterDelta(before[:1], after[:1], "sumproxy_hints_queued_total")
	set("proxy.hints_queued", v, ok)
	v, ok = counterDelta(before[:1], after[:1], "sumproxy_read_failovers_total")
	set("proxy.read_failovers", v, ok)
	v, ok = counterDelta(before[1:], after[1:], "sumd_dedup_hits_total")
	set("sumdsrv.dedup_hits", v, ok)
}

// check compares every written key, read through the proxy and on each
// replica, with the exact sum of its acknowledged writes.
func (pk *proxyKeyed) check(ctx context.Context, ph *phase, f *fleet, hc *http.Client) error {
	perKey := map[string]map[int]int64{}
	for _, m := range f.counts {
		for key, byIdx := range m {
			all := perKey[key]
			if all == nil {
				all = map[int]int64{}
				perKey[key] = all
			}
			for i, n := range byIdx {
				all[i] += n
			}
		}
	}
	readers := []*sumdclient.Client{sumdclient.New(f.front.url, hc)}
	names := []string{"proxy"}
	for i, b := range f.backends {
		readers = append(readers, sumdclient.New(b.url, hc))
		names = append(names, fmt.Sprintf("backend %d", i))
	}
	for _, key := range sortedKeys(perKey) {
		want := pk.pool.sum(perKey[key])
		for i, r := range readers {
			got, found, err := r.SumKey(ctx, key)
			if err != nil {
				return fmt.Errorf("final read of %s on %s: %w", key, names[i], err)
			}
			if (!found || math.Float64bits(got) != math.Float64bits(want)) && len(ph.errs) < maxErrs {
				ph.mismatch("%s on %s: %x (found %v), exact sum of acknowledged writes %x",
					key, names[i], math.Float64bits(got), found, math.Float64bits(want))
			}
		}
	}
	for i, r := range readers[1:] {
		keys, err := r.Keys(ctx, "", "")
		if err != nil {
			return fmt.Errorf("listing keys on backend %d: %w", i, err)
		}
		if len(keys) != len(perKey) {
			ph.mismatch("backend %d holds %d keys, %d were written", i, len(keys), len(perKey))
		}
	}
	return nil
}

func (pk *proxyKeyed) probes(ph *phase) error {
	kernelProbes(ph, pk.pool.all, pk.pool.all, pk.cfg.nproc)
	// One write's envelope as the proxy builds it, and its merge into a
	// replica's store that already holds every key.
	const reps = 2048
	envs := make([][]byte, numKeys)
	build := make([]int64, 0, reps)
	for i := range envs {
		t := time.Now()
		k, err := parsum.NewKeyed(parsum.KeyedOptions{Partitions: 1})
		if err != nil {
			return err
		}
		k.Add(pk.keys[i], pk.pool.batches[i%len(pk.pool.batches)])
		if envs[i], err = k.ExportAll(); err != nil {
			return err
		}
		if i < reps {
			build = append(build, int64(time.Since(t)))
		}
	}
	ph.layers["keyed.envelope_build_p50_us"] = pctUs(build, 50)
	store, err := parsum.NewKeyed(parsum.KeyedOptions{})
	if err != nil {
		return err
	}
	for _, e := range envs {
		if err := store.ImportMerge(e); err != nil {
			return err
		}
	}
	var importErr error
	ns := timeReps(reps, func(i int) {
		if err := store.ImportMerge(envs[i%len(envs)]); err != nil {
			importErr = err
		}
	})
	if importErr != nil {
		return importErr
	}
	ph.layers["keyed.import_merge_p50_us"] = pctUs(ns, 50)
	return nil
}
