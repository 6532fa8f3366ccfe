// Package proxy is the fault-tolerant routing/replication front-end
// over a fleet of sumd backends: keys spread over the fleet by a
// consistent-hash ring (internal/ring), every keyed write fanned out to
// R replicas, reads failing over down the replica list, and the whole
// thing held bit-exact by the algebra underneath — each replica's
// per-key state is a group element of the exact-summation group, so
// replicated writes, retries, hint replays, and repair diffs all
// commute, and convergence is checkable bit for bit.
//
// # Write path
//
// POST /v1/add?key=K (and /v1/sub) turns the request's values into a
// single-key keyed envelope, stamps it with an idempotency token, and
// pushes it to every replica of K concurrently. The SAME token rides
// every replica leg, every retry, and every hint replay of that write,
// so each backend applies the write exactly once no matter how many
// deliveries it takes (the backends' PR-9 token windows dedup). The
// client may supply its own Idempotency-Key header — a writer that
// retries a whole proxy request reuses its token and stays
// exactly-once end to end. Legs travel over sumdclient.NewTransport, a
// synchronous keep-alive transport; the handler runs one leg itself and
// spawns a goroutine for each of the others.
//
// Acks follow Options.AckMode: "quorum" (default) answers 200 once
// ⌊R/2⌋+1 replicas acked, "all" demands every replica, "one" is
// best-effort. Failed legs of an ACKED write queue a hinted handoff —
// the (token, envelope) pair — replayed to the backend when it returns;
// failed writes below the ack bar answer 503 and queue nothing (the
// write is the caller's to retry, with the same token).
//
// # Circuit breakers and degradation
//
// Each backend client carries a consecutive-failure circuit breaker
// (sumdclient.Breaker): a dead backend costs ErrBreakerOpen per leg —
// microseconds, not timeouts — until a half-open probe readmits it.
// Reads (GET /v1/sum?key=K) walk the replica list in ring order and
// serve the first answer.
//
// # Anti-entropy repair
//
// RepairNow (POST /v1/repair, or the background Options.RepairEvery
// loop) re-converges replicas after faults: under a brief write cut it
// flushes pending hints and pulls the full keyed state of every
// backend it could flush, then — outside the cut — majority-votes each
// key's rounded bits
// across its replicas and pushes each dissenter the exact difference
// (donor − dissenter) as a wire partial. Because ImportMerge ADDS group
// elements, the diff lands the dissenter exactly on the donor's state,
// and writes racing the push commute past it (both replicas see them).
// Repair assumes settled writes for the keys it fixes: a write fanning
// out mid-pull is cut off by the lock, and unacked partial writes are
// outvoted and erased. A wiped replica (kill -9, lost disk) is restored
// the same way — donor minus empty is the donor's full state.
package proxy

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"parsum/internal/accum"
	"parsum/internal/batch"
	"parsum/internal/core"
	"parsum/internal/f64le"
	"parsum/internal/keyed"
	"parsum/internal/ring"
	"parsum/internal/sumdclient"
)

// MaxBodyBytes is the default request-body cap.
const MaxBodyBytes = 64 << 20

// Ack modes.
const (
	AckQuorum = "quorum" // ⌊R/2⌋+1 replicas must ack (default)
	AckAll    = "all"    // every replica must ack
	AckOne    = "one"    // best-effort: one ack suffices
)

// Options configures New. Backends is required; everything else
// defaults sanely.
type Options struct {
	// Backends are the sumd base URLs forming the ring membership.
	Backends []string
	// Replication is R, the replicas per key; 0 means min(3, len(Backends)).
	Replication int
	// VNodes is the ring's virtual-node count per backend; 0 means
	// ring.DefaultVNodes.
	VNodes int
	// AckMode is "quorum" (default), "all", or "one".
	AckMode string
	// Timeout is each backend client's per-attempt deadline; 0 means 5s.
	Timeout time.Duration
	// Retry429 is each backend client's 429-shed retry budget.
	Retry429 int
	// BreakerThreshold and BreakerCooldown configure each backend's
	// circuit breaker (0 = the breaker defaults).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// HintCap bounds each backend's hinted-handoff queue; beyond it the
	// oldest hint is dropped (and counted — repair remains the
	// backstop). 0 means 1024.
	HintCap int
	// ReplayEvery is the hint-replay loop period; 0 means 500ms,
	// negative disables the background loop (hints then flush only via
	// repair or ReplayHintsNow).
	ReplayEvery time.Duration
	// RepairEvery runs a background anti-entropy round this often;
	// 0 disables (repair on demand via POST /v1/repair).
	RepairEvery time.Duration
	// MaxBodyBytes caps request bodies; 0 means the package default.
	MaxBodyBytes int64
	// Transport, when set, supplies each backend's http.RoundTripper —
	// the chaos harness's seam. nil means sumdclient.NewTransport, the
	// synchronous keep-alive transport built for replica legs.
	Transport func(backend string) http.RoundTripper
}

// counters is the proxy's ledger; one mutex, snapshotted whole.
type counters struct {
	writes       int64 // write requests admitted (decoded, fanned out)
	writeValues  int64 // float64s in them
	acked        int64 // writes acked at or above the ack bar
	ackFailed    int64 // writes answered 503 (below the bar)
	legsOK       int64 // replica legs that acked
	legsFailed   int64 // replica legs that errored
	reads        int64 // keyed sum reads served
	readFailover int64 // reads served by a non-primary replica
	readMisses   int64 // reads answered 404
	hintsQueued  int64
	hintsPlayed  int64
	hintsDropped int64
	repairRounds int64
	repairKeys   int64 // keys examined across rounds
	repairDiffs  int64 // correction partials pushed
	repairSkips  int64 // keys skipped (no reachable majority)
	repairErrors int64
}

// backendConn is one backend: its client (breaker installed) and its
// hinted-handoff queue.
type backendConn struct {
	c  *sumdclient.Client
	br *sumdclient.Breaker

	mu    sync.Mutex
	hints []hint // FIFO; bounded by Options.HintCap
}

// hint is one failed-but-acked replica leg: the envelope and the token
// under which every delivery attempt of that write runs.
type hint struct {
	token string
	blob  []byte
}

// Proxy is the HTTP front-end. Construct with New; serve via
// ServeHTTP; Close stops the background loops.
type Proxy struct {
	opt     Options
	ring    *ring.Ring
	r       int // replication factor
	need    int // acks required per write
	maxBody int64
	hintCap int

	backends map[string]*backendConn
	order    []string // sorted backend names
	mux      *http.ServeMux
	start    time.Time

	// cut is the write/repair exclusion: write fanouts and hint replays
	// hold it shared; repair's flush-and-pull holds it exclusively so
	// its cross-backend snapshot is a consistent cut of the write
	// history.
	cut sync.RWMutex

	mu sync.Mutex
	c  counters

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New validates opt, builds the ring and the per-backend clients, and
// starts the background hint-replay (and, when configured, repair)
// loops.
func New(opt Options) (*Proxy, error) {
	if len(opt.Backends) == 0 {
		return nil, errors.New("proxy: no backends")
	}
	for _, b := range opt.Backends {
		// sumd serves plain HTTP only, and the replica-leg transport
		// speaks nothing else.
		if u, err := url.Parse(b); err != nil || u.Scheme != "http" || u.Host == "" {
			return nil, fmt.Errorf("proxy: backend %q is not an http:// URL", b)
		}
	}
	rg, err := ring.New(ring.Options{Nodes: opt.Backends, VNodes: opt.VNodes})
	if err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	r := opt.Replication
	if r <= 0 {
		r = 3
	}
	if r > rg.Len() {
		r = rg.Len()
	}
	var need int
	switch opt.AckMode {
	case "", AckQuorum:
		need = r/2 + 1
	case AckAll:
		need = r
	case AckOne:
		need = 1
	default:
		return nil, fmt.Errorf("proxy: unknown ack mode %q (want quorum, all, or one)", opt.AckMode)
	}
	timeout := opt.Timeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	maxBody := opt.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = MaxBodyBytes
	}
	hintCap := opt.HintCap
	if hintCap <= 0 {
		hintCap = 1024
	}

	p := &Proxy{
		opt: opt, ring: rg, r: r, need: need, maxBody: maxBody, hintCap: hintCap,
		backends: make(map[string]*backendConn, rg.Len()),
		order:    rg.Nodes(),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		stop:     make(chan struct{}),
	}
	for _, name := range p.order {
		var rt http.RoundTripper
		if opt.Transport != nil {
			rt = opt.Transport(name)
		} else {
			rt = sumdclient.NewTransport(name)
		}
		c := sumdclient.New(name, &http.Client{Transport: rt})
		c.Timeout = timeout
		c.Retry429 = opt.Retry429
		br := &sumdclient.Breaker{Threshold: opt.BreakerThreshold, Cooldown: opt.BreakerCooldown}
		c.Breaker = br
		p.backends[name] = &backendConn{c: c, br: br}
	}

	p.mux.HandleFunc("POST /v1/add", func(w http.ResponseWriter, r *http.Request) { p.handleWrite(w, r, false) })
	p.mux.HandleFunc("POST /v1/sub", func(w http.ResponseWriter, r *http.Request) { p.handleWrite(w, r, true) })
	p.mux.HandleFunc("GET /v1/sum", p.handleSum)
	p.mux.HandleFunc("GET /v1/keys", p.handleKeys)
	p.mux.HandleFunc("GET /v1/topology", p.handleTopology)
	p.mux.HandleFunc("POST /v1/repair", p.handleRepair)
	p.mux.HandleFunc("GET /v1/healthz", p.handleHealthz)
	p.mux.HandleFunc("GET /v1/readyz", p.handleReadyz)
	p.mux.HandleFunc("GET /metrics", p.handleMetrics)

	replay := opt.ReplayEvery
	if replay == 0 {
		replay = 500 * time.Millisecond
	}
	if replay > 0 {
		p.wg.Add(1)
		go p.replayLoop(replay)
	}
	if opt.RepairEvery > 0 {
		p.wg.Add(1)
		go p.repairLoop(opt.RepairEvery)
	}
	return p, nil
}

// Close stops the background loops and closes the idle backend
// connections. Pending hints are not flushed — they are delivery
// optimizations; repair reconverges regardless.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		close(p.stop)
		p.wg.Wait()
		for _, conn := range p.backends {
			conn.c.CloseIdleConnections()
		}
	})
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.mux.ServeHTTP(w, r) }

// Ring exposes the placement function (read-only).
func (p *Proxy) Ring() *ring.Ring { return p.ring }

// Replication returns R.
func (p *Proxy) Replication() int { return p.r }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{Error: fmt.Sprintf(format, args...)})
}

// decodeValues reads the request body as JSON {"values":[...]} when
// its media type is application/json (parameters such as charset are
// ignored), and as raw little-endian float64s otherwise (decoded by
// internal/f64le straight into the value slice). A body over the cap is
// a 413, a malformed one a 400.
func (p *Proxy) decodeValues(w http.ResponseWriter, r *http.Request) ([]float64, bool) {
	body := http.MaxBytesReader(w, r.Body, p.maxBody)
	var xs []float64
	var err error
	mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	switch {
	case mt == "application/json":
		xs, err = decodeJSONValues(body)
	case r.ContentLength > p.maxBody:
		err = &http.MaxBytesError{Limit: p.maxBody}
	default:
		xs, err = f64le.Read(body, r.ContentLength, nil)
	}
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, "reading body: %v", err)
		return nil, false
	}
	return xs, true
}

func decodeJSONValues(body io.Reader) ([]float64, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	var req struct {
		Values []float64 `json:"values"`
	}
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("decoding JSON body: %w", err)
	}
	return req.Values, nil
}

// accPool recycles the accumulators write envelopes are built in.
var accPool = sync.Pool{New: func() any { return accum.NewDense(0) }}

// envelope builds the single-key keyed envelope carrying xs (negated
// when sub) — the unit every replica leg, retry, and hint replay of
// this write delivers under one token.
func envelope(key string, xs []float64, sub bool) ([]byte, error) {
	a := accPool.Get().(*accum.Dense)
	defer func() {
		a.Reset()
		accPool.Put(a)
	}()
	if sub {
		a.SubSlice(xs)
	} else {
		a.AddSlice(xs)
	}
	return keyed.EncodeOne(key, a)
}

func (p *Proxy) handleWrite(w http.ResponseWriter, r *http.Request, sub bool) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErr(w, http.StatusBadRequest, "missing key parameter (the proxy routes keyed writes only)")
		return
	}
	if len(key) > keyed.MaxKeyLen {
		writeErr(w, http.StatusBadRequest, "key length %d exceeds %d", len(key), keyed.MaxKeyLen)
		return
	}
	xs, ok := p.decodeValues(w, r)
	if !ok {
		return
	}
	blob, err := envelope(key, xs, sub)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "building envelope: %v", err)
		return
	}
	// The client's token when it sent one (an end-to-end retry), a
	// fresh one otherwise. Either way it is pinned to this envelope for
	// the write's whole delivery lifetime.
	token := r.Header.Get("Idempotency-Key")
	if token == "" {
		token = sumdclient.NewIdemToken()
	}

	replicas := p.ring.Replicas(key, p.r)
	errs := make([]error, len(replicas)) // by replica index

	p.cut.RLock()
	// The handler's own goroutine runs the last leg; each of the others
	// gets a goroutine.
	last := len(replicas) - 1
	var wg sync.WaitGroup
	for i, name := range replicas[:last] {
		wg.Add(1)
		go func(i int, conn *backendConn) {
			defer wg.Done()
			_, errs[i] = conn.c.PushKeyedIdem(r.Context(), token, blob)
		}(i, p.backends[name])
	}
	_, errs[last] = p.backends[replicas[last]].c.PushKeyedIdem(r.Context(), token, blob)
	wg.Wait()

	okLegs := 0
	for _, err := range errs {
		if err == nil {
			okLegs++
		}
	}
	acked := okLegs >= p.need
	hinted := 0
	if acked {
		// Failed legs of an acked write become hints: the ack promised
		// the write is in the system, so the proxy owns completing the
		// missing replicas. (Unacked writes stay the caller's to retry —
		// queuing them would promote a 503 into a silent maybe.)
		for i, err := range errs {
			if err != nil {
				p.enqueueHint(p.backends[replicas[i]], token, blob)
				hinted++
			}
		}
	}
	p.cut.RUnlock()

	p.mu.Lock()
	p.c.writes++
	p.c.writeValues += int64(len(xs))
	p.c.legsOK += int64(okLegs)
	p.c.legsFailed += int64(len(replicas) - okLegs)
	if acked {
		p.c.acked++
	} else {
		p.c.ackFailed++
	}
	p.mu.Unlock()

	if !acked {
		firstErr := ""
		for _, err := range errs {
			if err != nil {
				firstErr = err.Error()
				break
			}
		}
		writeErr(w, http.StatusServiceUnavailable, "write not acked: %d/%d replicas (need %d): %s",
			okLegs, len(replicas), p.need, firstErr)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Acked    bool   `json:"acked"`
		Key      string `json:"key"`
		Replicas int    `json:"replicas"`
		OK       int    `json:"ok"`
		Hinted   int    `json:"hinted"`
	}{Acked: true, Key: key, Replicas: len(replicas), OK: okLegs, Hinted: hinted})
}

func (p *Proxy) handleSum(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErr(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	replicas := p.ring.Replicas(key, p.r)
	sawAlive := false
	var lastErr error
	for i, name := range replicas {
		v, ok, err := p.backends[name].c.SumKey(r.Context(), key)
		if err != nil {
			lastErr = err
			continue
		}
		sawAlive = true
		if !ok {
			// This replica is live but lacks the key; a stale replica is
			// possible mid-heal, so keep walking before declaring a miss.
			continue
		}
		p.mu.Lock()
		p.c.reads++
		if i > 0 {
			p.c.readFailover++
		}
		p.mu.Unlock()
		bits := math.Float64bits(v)
		writeJSON(w, http.StatusOK, struct {
			Key     string `json:"key"`
			Sum     string `json:"sum"`
			Bits    string `json:"bits"`
			Replica string `json:"replica"`
		}{Key: key, Sum: strconv.FormatFloat(v, 'g', -1, 64), Bits: fmt.Sprintf("%016x", bits), Replica: name})
		return
	}
	if sawAlive {
		p.mu.Lock()
		p.c.readMisses++
		p.mu.Unlock()
		writeErr(w, http.StatusNotFound, "key %q not found on any live replica", key)
		return
	}
	writeErr(w, http.StatusServiceUnavailable, "no live replica for key %q: %v", key, lastErr)
}

func (p *Proxy) handleKeys(w http.ResponseWriter, r *http.Request) {
	lo, hi := r.URL.Query().Get("lo"), r.URL.Query().Get("hi")
	union := map[string]bool{}
	live := 0
	for _, name := range p.order {
		ks, err := p.backends[name].c.Keys(r.Context(), lo, hi)
		if err != nil {
			continue
		}
		live++
		for _, k := range ks {
			union[k] = true
		}
	}
	if live == 0 {
		writeErr(w, http.StatusServiceUnavailable, "no backend answered")
		return
	}
	keys := make([]string, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	writeJSON(w, http.StatusOK, struct {
		Keys     []string `json:"keys"`
		Count    int      `json:"count"`
		Backends int      `json:"backends"`
	}{Keys: keys, Count: len(keys), Backends: live})
}

func (p *Proxy) handleTopology(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		Nodes       []string          `json:"nodes"`
		Replication int               `json:"replication"`
		AckMode     string            `json:"ack_mode"`
		NeedAcks    int               `json:"need_acks"`
		VNodes      int               `json:"vnodes"`
		Engine      string            `json:"engine"`
		Breakers    map[string]string `json:"breakers"`
		Key         string            `json:"key,omitempty"`
		Replicas    []string          `json:"replicas,omitempty"`
	}{
		Nodes:       p.ring.Nodes(),
		Replication: p.r,
		AckMode:     p.ackModeName(),
		NeedAcks:    p.need,
		VNodes:      p.ring.VNodes(),
		Engine:      core.EngineDense,
		Breakers:    map[string]string{},
	}
	for _, name := range p.order {
		resp.Breakers[name] = p.backends[name].br.State().String()
	}
	if key := r.URL.Query().Get("key"); key != "" {
		resp.Key = key
		resp.Replicas = p.ring.Replicas(key, p.r)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (p *Proxy) ackModeName() string {
	if p.opt.AckMode == "" {
		return AckQuorum
	}
	return p.opt.AckMode
}

// liveBackends counts backends whose breaker is not open — known-dead
// nodes are exactly the open ones.
func (p *Proxy) liveBackends() int {
	n := 0
	for _, name := range p.order {
		if p.backends[name].br.State() != sumdclient.BreakerOpen {
			n++
		}
	}
	return n
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		OK       bool `json:"ok"`
		Backends int  `json:"backends"`
		Live     int  `json:"live"`
	}{OK: true, Backends: len(p.order), Live: p.liveBackends()})
}

// handleReadyz is ready when enough backends are live to ack a write.
func (p *Proxy) handleReadyz(w http.ResponseWriter, r *http.Request) {
	live := p.liveBackends()
	if live < p.need {
		http.Error(w, fmt.Sprintf("degraded: %d live backends, need %d to ack", live, p.need), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (p *Proxy) handleRepair(w http.ResponseWriter, r *http.Request) {
	stats := p.RepairNow(r.Context())
	status := http.StatusOK
	if stats.Errors > 0 || len(stats.Unreachable) > 0 {
		status = http.StatusAccepted // partial repair; another round will finish
	}
	writeJSON(w, status, stats)
}

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	c := p.c
	p.mu.Unlock()
	pending := int64(0)
	for _, name := range p.order {
		conn := p.backends[name]
		conn.mu.Lock()
		pending += int64(len(conn.hints))
		conn.mu.Unlock()
	}
	var pw batch.PromWriter
	pw.Gauge("sumproxy_up", "Whether the proxy is serving (always 1 when scraped).", 1)
	pw.Gauge("sumproxy_uptime_seconds", "Seconds since the proxy was constructed.", time.Since(p.start).Seconds())
	pw.Gauge("sumproxy_backends", "Configured backend count.", float64(len(p.order)))
	pw.Gauge("sumproxy_backends_live", "Backends whose circuit breaker is not open.", float64(p.liveBackends()))
	pw.Gauge("sumproxy_replication", "Replicas per key (R).", float64(p.r))
	pw.Gauge("sumproxy_need_acks", "Replica acks required per write.", float64(p.need))
	pw.Counter("sumproxy_writes_total", "Keyed write requests fanned out.", float64(c.writes))
	pw.Counter("sumproxy_write_values_total", "Raw float64s in fanned-out writes.", float64(c.writeValues))
	pw.Counter("sumproxy_writes_acked_total", "Writes acked at or above the ack bar.", float64(c.acked))
	pw.Counter("sumproxy_writes_failed_total", "Writes answered 503 below the ack bar.", float64(c.ackFailed))
	pw.CounterVec("sumproxy_write_legs_total", "Replica legs by outcome.", "outcome", map[string]float64{
		"ok": float64(c.legsOK), "error": float64(c.legsFailed),
	})
	pw.Counter("sumproxy_reads_total", "Keyed sum reads served.", float64(c.reads))
	pw.Counter("sumproxy_read_failovers_total", "Reads served by a non-primary replica.", float64(c.readFailover))
	pw.Counter("sumproxy_read_misses_total", "Keyed sum reads answered 404.", float64(c.readMisses))
	pw.Gauge("sumproxy_hints_pending", "Hinted-handoff envelopes awaiting replay.", float64(pending))
	pw.Counter("sumproxy_hints_queued_total", "Hints queued for failed legs of acked writes.", float64(c.hintsQueued))
	pw.Counter("sumproxy_hints_replayed_total", "Hints delivered to their backend.", float64(c.hintsPlayed))
	pw.Counter("sumproxy_hints_dropped_total", "Hints dropped at the queue cap or refused by their backend for good (repair is the backstop).", float64(c.hintsDropped))
	pw.Counter("sumproxy_repair_rounds_total", "Anti-entropy rounds completed.", float64(c.repairRounds))
	pw.Counter("sumproxy_repair_keys_total", "Keys examined by repair.", float64(c.repairKeys))
	pw.Counter("sumproxy_repair_diffs_total", "Correction partials pushed by repair.", float64(c.repairDiffs))
	pw.Counter("sumproxy_repair_skipped_total", "Keys skipped for want of a reachable majority.", float64(c.repairSkips))
	pw.Counter("sumproxy_repair_errors_total", "Repair pulls or pushes that failed.", float64(c.repairErrors))
	w.Header().Set("Content-Type", batch.PromContentType)
	_, _ = w.Write(pw.Bytes())
}
