// Package sumdsrv implements the HTTP merge service behind cmd/sumd: a
// network-facing reducer backed by a shard.Sharded accumulator. Workers
// anywhere combine their slice of the input locally (the paper's map-side
// combiner), serialize the exact partial with the versioned wire codec,
// and POST it here; the service merges partials carry-free and rounds once
// when a sum is requested. Because every exchange is an exact
// superaccumulator partial, the served sum is bit-identical to summing the
// concatenated input sequentially — regardless of how the input was
// partitioned across workers, the order partials arrive, or how many
// shards the service runs.
//
// Endpoints (all under /v1, plus the conventional /metrics):
//
//	POST /v1/add      raw little-endian float64s (application/octet-stream)
//	                  or JSON {"values":[...]} — ingest values directly
//	POST /v1/sub      same body formats — delete previously ingested values
//	                  exactly (the superaccumulator group inverse); the
//	                  served sum is bit-identical to summing the surviving
//	                  multiset from scratch
//	POST /v1/partial  a wire partial (Accumulator.MarshalBinary /
//	                  Sharded.SnapshotBytes) — merge a remote partial
//	GET  /v1/partial  the service's own state as a wire partial, so sumd
//	                  instances can chain into reduction trees
//	GET  /v1/sum      {"sum":"<decimal>","bits":"<hex>",...} — rounded once
//	POST /v1/reset    empty the accumulator
//	GET  /v1/stats    ingestion counters (JSON; includes the ingest
//	                  batcher's counters)
//	GET  /v1/healthz  liveness + configuration; 503 while durability is
//	                  degraded (a WAL write or fsync failure not yet
//	                  followed by a durable success)
//	GET  /v1/readyz   the same degradation check as a terse text probe
//	GET  /metrics     the same counters in Prometheus text format
//
// Malformed payloads — including partials of any engine but dense, the
// only representation the service holds — are rejected with 400 and
// never disturb accumulated state; bodies are size-capped.
//
// # Ingestion
//
// Every /v1/add and /v1/sub, plain or keyed, JSON or octet-stream, is
// enqueued into an internal/batch Batcher: a bounded queue drained by
// GOMAXPROCS flushers, each taking whatever is queued the moment it is
// free. A lone request flushes at once; under load requests pile up
// behind busy flushers and share one journal commit (group commit). The
// handler replies 200 only after the flush containing its values has
// been journaled and applied, so "accepted" means "applied": any sum
// requested after a 200 observes those values, and the exactness
// guarantee is unchanged — batching only regroups additions inside a
// commutative group. A flush whose journal commit fails answers every
// request of its group 500 with state untouched. When the queue is full
// the request is rejected immediately with 429 and Retry-After: 1,
// accumulated state untouched, so ingest overload degrades to shed load
// rather than to unbounded queueing.
package sumdsrv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parsum/internal/batch"
	"parsum/internal/core"
	"parsum/internal/f64le"
	"parsum/internal/keyed"
	"parsum/internal/shard"
	"parsum/internal/wal"
)

// MaxBodyBytes is the default request-body cap (64 MiB ≈ 8M float64s per
// batch); Options.MaxBodyBytes overrides it per server.
const MaxBodyBytes = 64 << 20

// Options configures a Server; the zero value is ready to use (one
// shard per P, 64 MiB body cap).
type Options struct {
	// Shards is the writer-stripe count of the backing Sharded; 0 means
	// GOMAXPROCS.
	Shards int
	// MaxBodyBytes caps every request body; a request exceeding it gets
	// 413 and never disturbs accumulated state. 0 means the MaxBodyBytes
	// constant; negative is rejected by New.
	MaxBodyBytes int64
	// KeyPartitions is the partition count of the keyed store behind the
	// key-addressed endpoints (/v1/add with a key, /v1/sum?key=,
	// /v1/keyed/partial); 0 means GOMAXPROCS.
	KeyPartitions int
	// QueueLen bounds the ingest requests admitted but not yet flushed;
	// beyond it /v1/add and /v1/sub answer 429. 0 means 256.
	QueueLen int
	// WrapSink, when non-nil, wraps the flush callback (journal, then
	// apply) before the batcher attaches to it. Test seam: e2e tests
	// interpose a gated callback to hold flushes open and pin the
	// full-queue 429 contract deterministically.
	WrapSink func(batch.Sink) batch.Sink
	// WALDir enables the write-ahead log: every state-mutating request
	// is journaled to this directory and committed before it is
	// acknowledged, and New replays the directory so the server restarts
	// with its pre-crash state. Empty disables durability (the previous
	// behaviour).
	WALDir string
	// WALFsync is the journal's fsync policy: "always" (the default —
	// fsync before every ack), "interval" (background fsync; a machine
	// crash can lose the last ~100ms), or "off" (page-cache durability
	// only: safe across process crashes, not machine crashes).
	WALFsync string
	// WALSegBytes is the journal's segment rotation threshold in bytes
	// (0 = 64 MiB).
	WALSegBytes int64
	// WALSnapshotEvery writes a state snapshot — truncating the replayed
	// log — every N journaled mutations; 0 disables count-triggered
	// snapshots. Whatever its value, a snapshot is also written whenever
	// the log since the last one passes 1 GiB, so the journal's disk use
	// and replay time stay bounded.
	WALSnapshotEvery int
	// DedupWindow caps the idempotency window remembering the
	// Idempotency-Key tokens of recently acknowledged partial pushes, so
	// a client retrying a push whose response was lost cannot
	// double-apply it. 0 means 1024 tokens; negative disables dedup.
	DedupWindow int
}

// counters is the server-level ingestion ledger. One mutex guards every
// field and Snapshot copies them under the same mutex, so a /v1/stats
// response can never tear — e.g. report a batch whose values are not
// counted yet. (These were independent atomics once; a scrape landing
// between two atomic increments could observe batches > 0 with values
// still 0.)
//
// Every field is a monotone process-lifetime counter: POST /v1/reset
// wipes accumulated *state*, never the ledger. Prometheus rate() and
// increase() stay correct across resets, and the only event that may
// legitimately move a sumd_*_total series backwards is a process
// restart (which scrapers already treat as a counter reset).
type counters struct {
	mu         sync.Mutex
	values     int64 // raw float64s ingested via keyless /v1/add
	batches    int64 // keyless /v1/add requests
	removed    int64 // raw float64s deleted via keyless /v1/sub
	subBatches int64 // keyless /v1/sub requests
	partials   int64 // wire partials merged via POST /v1/partial
	sums       int64 // /v1/sum and GET /v1/partial responses
	rejected   int64 // /v1/add + /v1/sub requests shed with 429
	deduped    int64 // partial pushes answered from the idempotency window

	keyedValues     int64 // raw float64s ingested via keyed /v1/add
	keyedBatches    int64 // keyed /v1/add requests
	keyedRemoved    int64 // raw float64s deleted via keyed /v1/sub
	keyedSubBatches int64 // keyed /v1/sub requests
	keyedPartials   int64 // keys merged via POST /v1/keyed/partial
	keyedSums       int64 // keyed sum / keyed partial-export responses
}

func (c *counters) addBatch(n int, keyed bool) {
	c.mu.Lock()
	if keyed {
		c.keyedBatches++
		c.keyedValues += int64(n)
	} else {
		c.batches++
		c.values += int64(n)
	}
	c.mu.Unlock()
}

func (c *counters) subBatch(n int, keyed bool) {
	c.mu.Lock()
	if keyed {
		c.keyedSubBatches++
		c.keyedRemoved += int64(n)
	} else {
		c.subBatches++
		c.removed += int64(n)
	}
	c.mu.Unlock()
}

func (c *counters) addKeyedPartials(n int) {
	c.mu.Lock()
	c.keyedPartials += int64(n)
	c.mu.Unlock()
}

func (c *counters) bump(field *int64) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

// counterSnap is a consistent copy of the ledger (no lock inside, so it
// can be passed around by value).
type counterSnap struct {
	values, batches, removed, subBatches, partials, sums, rejected,
	deduped int64

	keyedValues, keyedBatches, keyedRemoved, keyedSubBatches,
	keyedPartials, keyedSums int64
}

func (c *counters) snapshot() counterSnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return counterSnap{
		values: c.values, batches: c.batches,
		removed: c.removed, subBatches: c.subBatches,
		partials: c.partials, sums: c.sums, rejected: c.rejected,
		deduped:     c.deduped,
		keyedValues: c.keyedValues, keyedBatches: c.keyedBatches,
		keyedRemoved: c.keyedRemoved, keyedSubBatches: c.keyedSubBatches,
		keyedPartials: c.keyedPartials, keyedSums: c.keyedSums,
	}
}

// Server is the merge service. It implements http.Handler and is safe for
// concurrent use.
type Server struct {
	sh      *shard.Sharded
	keyed   *keyed.Store
	bat     *batch.Batcher
	mux     *http.ServeMux
	start   time.Time
	maxBody int64

	// Durability (nil / zero when Options.WALDir is empty). applyMu is
	// held shared around every journal+apply pair and exclusively by
	// reset and snapshot capture; see journalThenApply.
	wal       *wal.Log
	applyMu   sync.RWMutex
	walSince  atomic.Int64 // mutations journaled since the last snapshot
	snapEvery int64
	walFsync  wal.Policy
	recovery  WALRecovery

	// tokens is the idempotency-dedup window (non-nil even without a
	// WAL: response-loss retries are a transport hazard, not a crash
	// hazard).
	tokens *tokenWindow

	st counters
}

// New returns a Server backed by a fresh Sharded accumulator and keyed
// store. It errors on a negative body cap or a WAL directory that cannot
// be opened or replayed.
func New(opt Options) (*Server, error) {
	if opt.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("sumd: negative body cap %d", opt.MaxBodyBytes)
	}
	maxBody := opt.MaxBodyBytes
	if maxBody == 0 {
		maxBody = MaxBodyBytes
	}
	sh := shard.New(shard.Options{Shards: opt.Shards})
	ks := keyed.New(keyed.Options{Partitions: opt.KeyPartitions})
	s := &Server{sh: sh, keyed: ks, mux: http.NewServeMux(), start: time.Now(), maxBody: maxBody}
	switch {
	case opt.DedupWindow == 0:
		s.tokens = newTokenWindow(1024)
	case opt.DedupWindow > 0:
		s.tokens = newTokenWindow(opt.DedupWindow)
	}
	if opt.WALDir != "" {
		pol, err := wal.ParsePolicy(opt.WALFsync)
		if err != nil {
			return nil, err
		}
		wlog, recovered, err := wal.Open(wal.Options{Dir: opt.WALDir, SegBytes: opt.WALSegBytes, Fsync: pol})
		if err != nil {
			return nil, err
		}
		s.walFsync = pol
		s.snapEvery = int64(opt.WALSnapshotEvery)
		if err := s.recover(recovered); err != nil {
			_ = wlog.Close()
			return nil, err
		}
		// Arm the journal only after replay: recovery applies records
		// that are already in the log.
		s.wal = wlog
	}
	sink := batch.Sink(s.flush)
	if opt.WrapSink != nil {
		sink = opt.WrapSink(sink)
	}
	s.bat = batch.New(sink, batch.Options{QueueLen: opt.QueueLen})
	s.mux.HandleFunc("POST /v1/add", s.handleAdd)
	s.mux.HandleFunc("POST /v1/sub", s.handleSub)
	s.mux.HandleFunc("POST /v1/partial", s.handlePushPartial)
	s.mux.HandleFunc("GET /v1/partial", s.handleGetPartial)
	s.mux.HandleFunc("GET /v1/sum", s.handleSum)
	s.mux.HandleFunc("POST /v1/reset", s.handleReset)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/keys", s.handleKeys)
	s.mux.HandleFunc("POST /v1/keyed/partial", s.handlePushKeyed)
	s.mux.HandleFunc("GET /v1/keyed/partial", s.handleGetKeyed)
	return s, nil
}

// Durable reports whether the write-ahead log is journaling ingests.
func (s *Server) Durable() bool { return s.wal != nil }

// Recovery reports what WAL recovery found at construction (the zero
// value when the WAL is off).
func (s *Server) Recovery() WALRecovery { return s.recovery }

// Close drains and stops the ingest batcher (flushing every admitted
// batch) so accepted requests are never dropped on shutdown, then seals
// the journal. Safe to call more than once.
func (s *Server) Close() {
	s.bat.Close()
	if s.wal != nil {
		_ = s.wal.Close()
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	s.mux.ServeHTTP(w, r)
}

// SumResponse is the GET /v1/sum payload. Sum is the shortest decimal
// that round-trips to the exact float64 ("NaN", "+Inf", "-Inf" for
// non-finite results); Bits is its IEEE-754 bit pattern in hex — the
// field distributed bit-identity checks should compare. Engine is always
// "dense", the service's one accumulator (as in every response that
// carries the field).
type SumResponse struct {
	Sum    string `json:"sum"`
	Bits   string `json:"bits"`
	Engine string `json:"engine"`
	Shards int    `json:"shards"`
	// Key names the keyed-store entry this sum belongs to; empty for the
	// global sum.
	Key string `json:"key,omitempty"`
}

// StatsResponse is the GET /v1/stats payload. The server-level counters
// are one consistent snapshot (taken under one lock); Async is a second
// consistent snapshot, of the ingest batcher's ledger.
//
// Every counter is monotone over the process lifetime: POST /v1/reset
// clears accumulated state, not the ledger. Only a process restart
// starts the counters over.
type StatsResponse struct {
	Engine        string      `json:"engine"`
	Shards        int         `json:"shards"`
	Values        int64       `json:"values"`
	Batches       int64       `json:"batches"`
	Removed       int64       `json:"removed"`
	SubBatches    int64       `json:"sub_batches"`
	Partials      int64       `json:"partials"`
	SumsServed    int64       `json:"sums_served"`
	Rejected      int64       `json:"rejected"`
	Deduped       int64       `json:"deduped"`
	UptimeSeconds int64       `json:"uptime_seconds"`
	Keyed         KeyedStats  `json:"keyed"`
	Async         *AsyncStats `json:"async"`
	WAL           *WALStats   `json:"wal,omitempty"`
}

// KeyedStats is the keyed store's configuration and counter snapshot
// inside StatsResponse.
type KeyedStats struct {
	Partitions int   `json:"partitions"`
	Keys       int   `json:"keys"`
	Values     int64 `json:"values"`
	Batches    int64 `json:"batches"`
	Removed    int64 `json:"removed"`
	SubBatches int64 `json:"sub_batches"`
	Partials   int64 `json:"partials"`
	SumsServed int64 `json:"sums_served"`
}

// AsyncStats is the ingest batcher's queue bound and counter snapshot
// inside StatsResponse.
type AsyncStats struct {
	QueueLen int `json:"queue_len"`

	Enqueued        int64 `json:"enqueued"`
	EnqueuedValues  int64 `json:"enqueued_values"`
	Rejected        int64 `json:"rejected"`
	Flushes         int64 `json:"flushes"`
	FlushedRequests int64 `json:"flushed_requests"`
	FlushedValues   int64 `json:"flushed_values"`
	QueueDepth      int64 `json:"queue_depth"`
	FlushNsTotal    int64 `json:"flush_ns_total"`

	KeyedEnqueued        int64 `json:"keyed_enqueued"`
	KeyedFlushedRequests int64 `json:"keyed_flushed_requests"`
}

// AddRequest is the JSON form of POST /v1/add and /v1/sub. The binary form
// (application/octet-stream, raw little-endian float64s) is preferred for
// bulk and is the only way to ship non-finite values. A non-empty Key
// routes the values into that key's accumulator in the keyed store
// instead of the global sum; the binary form carries the key in the
// ?key= query parameter instead. Setting both to different values is a
// 400.
type AddRequest struct {
	Values []float64 `json:"values"`
	Key    string    `json:"key,omitempty"`
}

// AddResponse is the POST /v1/add payload. Key echoes the target key on
// keyed requests.
type AddResponse struct {
	Added int    `json:"added"`
	Key   string `json:"key,omitempty"`
}

// SubResponse is the POST /v1/sub payload.
type SubResponse struct {
	Removed int    `json:"removed"`
	Key     string `json:"key,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// readBody drains a size-capped request body, mapping the cap being hit
// to 413 (split and retry) rather than 400 (malformed payload).
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, bodyErrStatus(err), err)
		return nil, false
	}
	return body, true
}

// bodyErrStatus maps a body read failure to its status: 413 when the
// size cap was hit, 400 for anything else (a truncated or malformed
// body).
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// mediaType returns the request's Content-Type without parameters
// (RFC 9110 allows e.g. "; charset=..."), for routing on the media type
// alone.
func mediaType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		return mt
	}
	return ct
}

// maxPooledValues caps the value buffers the raw ingest path recycles
// (1 MiB of float64s). A larger body gets a buffer of its own that the
// GC reclaims, so one huge request cannot pin its size in the pool.
const maxPooledValues = 1 << 17

// valuePool recycles the raw ingest path's value buffers across
// requests; it holds *[]float64 so a Put does not allocate.
var valuePool = sync.Pool{New: func() any { return new([]float64) }}

// readValues reads a raw octet-stream batch straight into a pooled
// value buffer: the little-endian body bytes land in the buffer's own
// memory (see internal/f64le), exactly Content-Length/8 values when the
// length is declared, a doubling buffer for a chunked body. A declared
// length over the body cap is refused with 413 before anything is
// read; a length that is not a multiple of 8, or a body that ends
// before its declared length, is a 400. On success the caller owns the
// buffer and returns it with recycleValues once nothing can read it any
// more.
func (s *Server) readValues(w http.ResponseWriter, r *http.Request) (*[]float64, bool) {
	if r.ContentLength > s.maxBody {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("body of %d bytes exceeds the %d-byte cap", r.ContentLength, s.maxBody))
		return nil, false
	}
	buf := valuePool.Get().(*[]float64)
	xs, err := f64le.Read(r.Body, r.ContentLength, *buf)
	*buf = xs
	if err != nil {
		recycleValues(buf)
		writeError(w, bodyErrStatus(err), err)
		return nil, false
	}
	return buf, true
}

// recycleValues returns a value buffer to the pool unless it outgrew
// maxPooledValues.
func recycleValues(buf *[]float64) {
	if cap(*buf) > maxPooledValues {
		return
	}
	*buf = (*buf)[:0]
	valuePool.Put(buf)
}

// decodeJSONBatch parses the JSON form of the /v1/add and /v1/sub body —
// a single {"values":[...],"key":...} document — and resolves the
// target key from the ?key= query parameter and/or the JSON field. It
// writes the error response itself and reports ok = false on malformed
// payloads.
func decodeJSONBatch(w http.ResponseWriter, r *http.Request, body []byte) (xs []float64, key string, ok bool) {
	var req AddRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding JSON batch: %w", err))
		return nil, "", false
	}
	// A batch is one JSON value; trailing content would otherwise be
	// silently dropped data.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeError(w, http.StatusBadRequest, errors.New("trailing data after JSON batch"))
		return nil, "", false
	}
	key = req.Key
	if queryKey := r.URL.Query().Get("key"); queryKey != "" {
		if key != "" && key != queryKey {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("key %q in query disagrees with key %q in body", queryKey, key))
			return nil, "", false
		}
		key = queryKey
	}
	if !checkKeyParam(w, key) {
		return nil, "", false
	}
	return req.Values, key, true
}

// checkKeyParam rejects over-length keys at the network edge with 400
// (the store itself treats them as programming errors and panics).
func checkKeyParam(w http.ResponseWriter, key string) bool {
	if len(key) > keyed.MaxKeyLen {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("key length %d exceeds limit %d", len(key), keyed.MaxKeyLen))
		return false
	}
	return true
}

// ingest submits one decoded batch to the batcher and waits for the
// flush that journals and applies it (group commit). A non-empty key
// routes to the keyed store. It reports whether the batch was applied,
// writing the shed-load or failure response itself when not.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request, key string, xs []float64, sub bool) bool {
	var err error
	switch {
	case key != "" && sub:
		err = s.bat.SubKeyed(r.Context(), key, xs)
	case key != "":
		err = s.bat.AddKeyed(r.Context(), key, xs)
	case sub:
		err = s.bat.Sub(r.Context(), xs)
	default:
		err = s.bat.Add(r.Context(), xs)
	}
	switch {
	case err == nil:
		return true
	case errors.Is(err, batch.ErrQueueFull):
		// Fail fast, state untouched: the client should back off and
		// retry once a flusher has drained the queue, which takes one
		// flush, not a timer.
		s.st.bump(&s.st.rejected)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return false
	case errors.Is(err, batch.ErrClosed), r.Context().Err() != nil:
		// Shutting down, or the client abandoned the request mid-wait
		// (the batch is admitted and will still be flushed, but there is
		// nobody to tell). 499-style situations get a plain 503.
		writeError(w, http.StatusServiceUnavailable, err)
		return false
	default:
		// The flush could not journal the group: nothing was applied.
		writeError(w, http.StatusInternalServerError, err)
		return false
	}
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) { s.handleBatch(w, r, false) }

func (s *Server) handleSub(w http.ResponseWriter, r *http.Request) { s.handleBatch(w, r, true) }

// handleBatch serves /v1/add and /v1/sub in both body formats: raw
// little-endian float64s (application/octet-stream, key in ?key=) read
// into a pooled buffer, or a JSON document.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, sub bool) {
	var xs []float64
	var key string
	if mediaType(r) == "application/octet-stream" {
		key = r.URL.Query().Get("key")
		if !checkKeyParam(w, key) {
			return
		}
		buf, ok := s.readValues(w, r)
		if !ok {
			return
		}
		// Recycle only once ingest has returned, and never when the
		// request's context is done: a batch whose caller stopped waiting
		// is still queued and will be flushed from this memory.
		// (A context that ends after a completed flush only costs one
		// recycle.)
		defer func() {
			if r.Context().Err() == nil {
				recycleValues(buf)
			}
		}()
		xs = *buf
	} else {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		if xs, key, ok = decodeJSONBatch(w, r, body); !ok {
			return
		}
	}
	if !s.ingest(w, r, key, xs, sub) {
		return
	}
	if sub {
		s.st.subBatch(len(xs), key != "")
	} else {
		s.st.addBatch(len(xs), key != "")
	}
	s.maybeSnapshot()
	if sub {
		writeJSON(w, http.StatusOK, SubResponse{Removed: len(xs), Key: key})
	} else {
		writeJSON(w, http.StatusOK, AddResponse{Added: len(xs), Key: key})
	}
}

func (s *Server) handlePushPartial(w http.ResponseWriter, r *http.Request) {
	blob, ok := readBody(w, r)
	if !ok {
		return
	}
	if _, ok := s.push(w, r, wal.Record{Type: wal.RecPartial, Blob: blob}); !ok {
		return
	}
	s.st.bump(&s.st.partials)
	s.maybeSnapshot()
	writeJSON(w, http.StatusOK, mergedResponse{Merged: 1})
}

func (s *Server) handleGetPartial(w http.ResponseWriter, r *http.Request) {
	blob, err := s.sh.SnapshotBytes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.st.bump(&s.st.sums)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	_, _ = w.Write(blob)
}

func (s *Server) handleSum(w http.ResponseWriter, r *http.Request) {
	if key := r.URL.Query().Get("key"); key != "" {
		if !checkKeyParam(w, key) {
			return
		}
		v, ok := s.keyed.Sum(key)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown key %q", key))
			return
		}
		s.st.bump(&s.st.keyedSums)
		writeJSON(w, http.StatusOK, SumResponse{
			Sum:    strconv.FormatFloat(v, 'g', -1, 64),
			Bits:   strconv.FormatUint(math.Float64bits(v), 16),
			Engine: core.EngineDense,
			Shards: s.sh.Shards(),
			Key:    key,
		})
		return
	}
	v := s.sh.Sum()
	s.st.bump(&s.st.sums)
	writeJSON(w, http.StatusOK, SumResponse{
		Sum:    strconv.FormatFloat(v, 'g', -1, 64),
		Bits:   strconv.FormatUint(math.Float64bits(v), 16),
		Engine: core.EngineDense,
		Shards: s.sh.Shards(),
	})
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	// Exclusive: a reset must not interleave with a journal+apply pair,
	// or replay could order the wipe differently than the live process
	// did. The reset record is journaled first, so recovery wipes state
	// at the same point in the history. The idempotency window survives
	// (see tokenWindow); so do the stats counters (monotone ledger).
	rec := wal.Record{Type: wal.RecReset}
	s.applyMu.Lock()
	_, err := s.journalThenApply("", []wal.Record{rec}, func() { _ = s.applyRecord(rec) })
	s.applyMu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.maybeSnapshot()
	writeJSON(w, http.StatusOK, struct {
		Reset bool `json:"reset"`
	}{Reset: true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	c := s.st.snapshot()
	resp := StatsResponse{
		Engine:        core.EngineDense,
		Shards:        s.sh.Shards(),
		Values:        c.values,
		Batches:       c.batches,
		Removed:       c.removed,
		SubBatches:    c.subBatches,
		Partials:      c.partials,
		SumsServed:    c.sums,
		Rejected:      c.rejected,
		Deduped:       c.deduped,
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Keyed: KeyedStats{
			Partitions: s.keyed.Partitions(),
			Keys:       s.keyed.Len(),
			Values:     c.keyedValues,
			Batches:    c.keyedBatches,
			Removed:    c.keyedRemoved,
			SubBatches: c.keyedSubBatches,
			Partials:   c.keyedPartials,
			SumsServed: c.keyedSums,
		},
	}
	m := s.bat.Metrics()
	resp.Async = &AsyncStats{
		QueueLen: s.bat.Options().QueueLen,

		Enqueued:        m.Enqueued,
		EnqueuedValues:  m.EnqueuedValues,
		Rejected:        m.Rejected,
		Flushes:         m.Flushes,
		FlushedRequests: m.FlushedRequests,
		FlushedValues:   m.FlushedValues,
		QueueDepth:      m.QueueDepth,
		FlushNsTotal:    m.FlushNs,

		KeyedEnqueued:        m.KeyedEnqueued,
		KeyedFlushedRequests: m.KeyedFlushedRequests,
	}
	if s.wal != nil {
		m := s.wal.Metrics()
		resp.WAL = &WALStats{
			Fsync:     s.walFsync.String(),
			Records:   m.Records,
			Bytes:     m.Bytes,
			Commits:   m.Commits,
			Fsyncs:    m.Fsyncs,
			Rotations: m.Rotations,
			Snapshots: m.Snapshots,
			Errors:    m.Errors,
			Segments:  m.Segments,
			LastError: m.LastError,
			Recovery:  s.recovery,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves every counter in Prometheus text format. Counter
// families come from consistent snapshots (the server ledger under its
// one lock, the batcher ledger under its one lock), so no series in a
// scrape can contradict another from the same ledger.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.st.snapshot()
	var p batch.PromWriter
	p.Gauge("sumd_up", "Whether the service is serving (always 1 when scraped).", 1)
	p.Gauge("sumd_shards", "Writer-stripe count of the backing sharded accumulator.", float64(s.sh.Shards()))
	p.Gauge("sumd_uptime_seconds", "Seconds since the server was constructed.", time.Since(s.start).Seconds())
	p.Counter("sumd_values_total", "Raw float64s accepted via /v1/add.", float64(c.values))
	p.Counter("sumd_batches_total", "Accepted /v1/add requests.", float64(c.batches))
	p.Counter("sumd_removed_total", "Raw float64s deleted via /v1/sub.", float64(c.removed))
	p.Counter("sumd_sub_batches_total", "Accepted /v1/sub requests.", float64(c.subBatches))
	p.Counter("sumd_partials_total", "Wire partials merged via POST /v1/partial.", float64(c.partials))
	p.Counter("sumd_sums_served_total", "Sum and partial-snapshot responses served.", float64(c.sums))
	p.Counter("sumd_rejected_total", "Ingest requests shed with 429 (queue full).", float64(c.rejected))
	p.Counter("sumd_dedup_hits_total", "Partial pushes answered from the idempotency window without re-merging.", float64(c.deduped))
	p.Gauge("sumd_keyed_partitions", "Partition count of the keyed store.", float64(s.keyed.Partitions()))
	p.Gauge("sumd_keyed_keys", "Live keys in the keyed store.", float64(s.keyed.Len()))
	p.Counter("sumd_keyed_values_total", "Raw float64s accepted via keyed /v1/add.", float64(c.keyedValues))
	p.Counter("sumd_keyed_batches_total", "Accepted keyed /v1/add requests.", float64(c.keyedBatches))
	p.Counter("sumd_keyed_removed_total", "Raw float64s deleted via keyed /v1/sub.", float64(c.keyedRemoved))
	p.Counter("sumd_keyed_sub_batches_total", "Accepted keyed /v1/sub requests.", float64(c.keyedSubBatches))
	p.Counter("sumd_keyed_partials_total", "Keys merged via POST /v1/keyed/partial.", float64(c.keyedPartials))
	p.Counter("sumd_keyed_sums_served_total", "Keyed sum and keyed partial-export responses served.", float64(c.keyedSums))
	m := s.bat.Metrics()
	p.Gauge("sumd_ingest_queue_len", "Capacity of the bounded ingest queue (requests).", float64(s.bat.Options().QueueLen))
	p.Gauge("sumd_ingest_queue_depth", "Requests admitted but not yet flushed.", float64(m.QueueDepth))
	p.Counter("sumd_ingest_enqueued_total", "Requests admitted to the ingest queue.", float64(m.Enqueued))
	p.Counter("sumd_ingest_enqueued_values_total", "Float64s admitted to the ingest queue.", float64(m.EnqueuedValues))
	p.Counter("sumd_ingest_rejected_total", "Requests refused because the ingest queue was full.", float64(m.Rejected))
	p.Counter("sumd_ingest_flushes_total", "Flush groups handed to the journal and accumulators.", float64(m.Flushes))
	p.Counter("sumd_ingest_flushed_values_total", "Float64s in flushed groups.", float64(m.FlushedValues))
	p.Counter("sumd_ingest_keyed_enqueued_total", "Keyed requests admitted to the ingest queue.", float64(m.KeyedEnqueued))
	p.Counter("sumd_ingest_keyed_flushed_requests_total", "Keyed requests completed by flushes.", float64(m.KeyedFlushedRequests))
	p.Histogram("sumd_ingest_flush_size", "Values per flush.",
		batch.SizeBuckets[:], m.SizeHist[:], float64(m.FlushedValues))
	p.Histogram("sumd_ingest_flush_latency_seconds", "Wall time inside flush calls (journal and apply).",
		batch.LatencyBuckets[:], m.LatencyHist[:], float64(m.FlushNs)/1e9)
	bad, _ := s.degraded()
	p.Gauge("sumd_degraded", "Whether durability is degraded (healthz serving 503).", b2f(bad))
	p.Gauge("sumd_wal_enabled", "Whether the write-ahead log is journaling ingests.", b2f(s.wal != nil))
	if s.wal != nil {
		m := s.wal.Metrics()
		p.Counter("sumd_wal_records_total", "Mutation records journaled.", float64(m.Records))
		p.Counter("sumd_wal_bytes_total", "Frame bytes written to the journal (headers included).", float64(m.Bytes))
		p.Counter("sumd_wal_commits_total", "Journal commits (one per ingest flush group or push).", float64(m.Commits))
		p.Counter("sumd_wal_fsyncs_total", "Fsyncs issued by the journal.", float64(m.Fsyncs))
		p.Counter("sumd_wal_rotations_total", "Segment rotations.", float64(m.Rotations))
		p.Counter("sumd_wal_snapshots_total", "State snapshots written (each truncates replayed segments).", float64(m.Snapshots))
		p.Counter("sumd_wal_errors_total", "Journal write, fsync, rotate, or snapshot failures.", float64(m.Errors))
		p.Gauge("sumd_wal_segments", "Live journal segment files.", float64(m.Segments))
		p.Gauge("sumd_wal_recovered_records", "Records replayed at startup.", float64(s.recovery.Records))
		p.Gauge("sumd_wal_recovered_truncated_bytes", "Torn-tail bytes dropped at startup.", float64(s.recovery.TruncatedBytes))
		p.Gauge("sumd_wal_recovered_snapshot", "Whether a snapshot seeded recovery at startup.", b2f(s.recovery.SnapshotLoaded))
	}
	w.Header().Set("Content-Type", batch.PromContentType)
	_, _ = w.Write(p.Bytes())
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// degraded reports whether the service can no longer keep its
// durability promise: a WAL write/fsync/rotate/snapshot failure that
// has not been followed by a durable success. While degraded, an ack
// might not survive a crash, so health flips to 503 — a monitor or load
// balancer pulls the node instead of feeding it writes it may lose.
func (s *Server) degraded() (bool, string) {
	if s.wal == nil {
		return false, ""
	}
	bad, lastErr := s.wal.Degraded()
	if !bad {
		return false, ""
	}
	return true, lastErr
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bad, lastErr := s.degraded()
	status := http.StatusOK
	if bad {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, struct {
		OK       bool   `json:"ok"`
		Engine   string `json:"engine"`
		Shards   int    `json:"shards"`
		Degraded bool   `json:"degraded,omitempty"`
		Error    string `json:"error,omitempty"`
	}{OK: !bad, Engine: core.EngineDense, Shards: s.sh.Shards(), Degraded: bad, Error: lastErr})
}

// handleReadyz is the readiness probe: identical degradation logic to
// /v1/healthz but with the conventional terse text body, so ingress
// health checks that expect "ok" can consume it directly.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if bad, lastErr := s.degraded(); bad {
		http.Error(w, "degraded: "+lastErr, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}
