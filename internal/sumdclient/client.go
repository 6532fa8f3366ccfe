// Package sumdclient is the worker-side half of the distributed
// aggregation protocol: a small HTTP client for a sumd merge service
// (internal/sumdsrv), plus a Combiner that plays the paper's map-side
// combiner — accumulate a slice of the input exactly in a local
// superaccumulator, then ship the serialized partial over the socket in
// one hop. Everything exchanged is an exact wire partial, so the service's
// final sum is bit-identical to summing the whole input sequentially no
// matter how work was split across combiners or when they flushed.
package sumdclient

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsum/internal/accum"
	"parsum/internal/core"
	"parsum/internal/f64le"
	"parsum/internal/sumdsrv"
)

// Client talks to one sumd service.
//
// The service's ingest queue sheds overload with 429 + Retry-After,
// guaranteeing the rejected batch left no trace
// in the accumulator — which makes a blind re-send of the same batch
// safe. Set Retry429 to have the client do that automatically with
// jittered exponential backoff. Configure the retry fields before the
// first request; they must not be mutated concurrently with use.
type Client struct {
	base string
	hc   *http.Client

	// Retry429 is the maximum number of times one request shed with
	// HTTP 429 is re-sent before the error is returned. 0 disables
	// retrying.
	Retry429 int
	// RetryBase is the first backoff delay; it doubles per attempt with
	// full jitter (a uniform draw from [d/2, d)), capped by RetryMax and
	// by the server's Retry-After hint. 0 means 2ms.
	RetryBase time.Duration
	// RetryMax caps the exponential backoff delay, so a deep retry loop
	// (or a large Retry429) cannot doze off for minutes — or, worse,
	// overflow the shifted duration. 0 means 4s; a cap below RetryBase
	// is raised to RetryBase.
	RetryMax time.Duration
	// MaxResponseBytes caps how many bytes of a response body the client
	// will read; a larger response is an error, never a silently
	// truncated blob. 0 means sumdsrv.MaxBodyBytes — the server's
	// *default* body cap. Raise it to match a service configured with a
	// larger Options.MaxBodyBytes, or a GET /v1/keyed/partial whose
	// envelope outgrows the default.
	MaxResponseBytes int64
	// Timeout is the per-attempt deadline applied when the caller's
	// context has none — so context.Background() callers cannot hang
	// forever on a stuck backend. A caller context that already carries
	// a deadline is respected untouched (even a longer one). New sets it
	// to DefaultTimeout; negative disables the default entirely.
	Timeout time.Duration
	// Breaker, when set, gates every attempt: an open breaker fails the
	// request with ErrBreakerOpen before anything is sent, and each
	// attempted request's outcome feeds back into the breaker (transport
	// errors and 5xx responses count as failures; any completed non-5xx
	// response proves the backend alive). The proxy installs one Breaker
	// per backend client.
	Breaker *Breaker

	retried atomic.Int64
	sleep   func(ctx context.Context, d time.Duration) error // test hook
	jitter  func(n int64) int64                              // test hook; uniform draw from [0, n)
}

// DefaultTimeout is the per-attempt deadline New installs in
// Client.Timeout: generous enough for a full keyed-envelope exchange,
// short enough that a wedged backend surfaces as an error instead of a
// hung worker.
const DefaultTimeout = 30 * time.Second

// New returns a Client for the sumd service at baseURL (e.g.
// "http://127.0.0.1:8372"). hc may be nil for http.DefaultClient.
func New(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc, Timeout: DefaultTimeout, sleep: sleepCtx, jitter: rand.Int64N}
}

// CloseIdleConnections closes the idle keep-alive connections of the
// client's transport, when it keeps any.
func (c *Client) CloseIdleConnections() { c.hc.CloseIdleConnections() }

// apiError is a non-2xx response from the service.
type apiError struct {
	Status        int
	Message       string
	RetryAfter    time.Duration // parsed Retry-After hint; see HasRetryAfter
	HasRetryAfter bool          // the response carried a usable Retry-After
}

func (e *apiError) Error() string {
	return fmt.Sprintf("sumd: HTTP %d: %s", e.Status, e.Message)
}

// ErrorStatus returns the HTTP status behind an error the client
// returned, or 0 when the error was not an HTTP response (transport
// failure, open breaker, context cancellation). The proxy uses it to
// split "backend answered badly" from "backend unreachable".
func ErrorStatus(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// Retried429 reports how many 429-shed requests the client has re-sent
// over its lifetime — the number of admission-control collisions, which
// load tests cross-check against the service's rejected counter.
func (c *Client) Retried429() int64 { return c.retried.Load() }

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do issues one request, re-sending it with jittered exponential backoff
// for up to Retry429 attempts when the service sheds it with 429 (safe:
// a 429 guarantees the batch was not applied).
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) ([]byte, error) {
	return c.doIdem(ctx, method, path, contentType, "", body, false)
}

// doIdem is do with an Idempotency-Key token attached to every send.
// The combiners use it so a push whose response was lost can be re-sent
// without the service applying it twice. aliased marks a body the
// caller still owns (see fence).
func (c *Client) doIdem(ctx context.Context, method, path, contentType, token string, body []byte, aliased bool) ([]byte, error) {
	data, err := c.doOnce(ctx, method, path, contentType, token, body, aliased)
	for attempt := 0; attempt < c.Retry429; attempt++ {
		var ae *apiError
		if err == nil || !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
			return data, err
		}
		c.retried.Add(1)
		if serr := c.sleep(ctx, c.backoff(attempt, ae)); serr != nil {
			return nil, serr
		}
		data, err = c.doOnce(ctx, method, path, contentType, token, body, aliased)
	}
	return data, err
}

// backoff returns the delay before retry number attempt (0-based):
// RetryBase<<attempt with full jitter (uniform in [d/2, d]), capped at
// RetryMax and at the server's Retry-After hint when one was given —
// the hint is an upper bound on useful waiting, since a flusher drains
// the whole ingest queue each time it frees up, far sooner than sumd's
// one-second hint. A hint of exactly zero means "retry immediately"
// (RFC 9110 allows it, and a drained queue serves the re-send at once),
// so the backoff curve is skipped entirely. Jitter comes from the
// per-client seam, not the global math/rand source, so seeding
// elsewhere in the process cannot correlate the retry storms of
// independent clients.
//
// The doubling stops at the cap instead of shifting blindly: the old
// `base << min(attempt, 20)` could put a 2ms base to sleep for over
// half an hour, and a caller-supplied base near an hour shifted past
// the int64 range entirely.
func (c *Client) backoff(attempt int, ae *apiError) time.Duration {
	if ae.HasRetryAfter && ae.RetryAfter == 0 {
		return 0
	}
	base := c.RetryBase
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	maxd := c.RetryMax
	if maxd <= 0 {
		maxd = 4 * time.Second
	}
	if maxd < base {
		maxd = base
	}
	d := base
	for i := 0; i < attempt && d < maxd; i++ {
		d <<= 1
		if d <= 0 { // overflowed past the int64 range
			d = maxd
			break
		}
	}
	if d > maxd {
		d = maxd
	}
	if ae.HasRetryAfter && d > ae.RetryAfter {
		d = ae.RetryAfter
	}
	return d/2 + time.Duration(c.jitter(int64(d/2)+1))
}

func (c *Client) doOnce(ctx context.Context, method, path, contentType, token string, body []byte, aliased bool) ([]byte, error) {
	if c.Breaker != nil {
		if err := c.Breaker.Allow(); err != nil {
			return nil, err
		}
	}
	data, status, err := c.send(ctx, method, path, contentType, token, body, aliased)
	if c.Breaker != nil {
		// Failure = nothing came back (status 0), or the backend itself
		// is broken (5xx). Any non-5xx response — including a 429 shed or
		// a 400 rejection — is a live, answering backend and closes the
		// loop like a success.
		c.Breaker.Record(status > 0 && status < 500)
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// send performs one HTTP exchange. status is nonzero whenever a
// response arrived, even one that send turns into an error — the
// breaker needs "backend answered 429" and "connection refused" to be
// distinguishable. An aliased body is fenced for the duration of the
// call: no read of it can happen once send has returned.
func (c *Client) send(ctx context.Context, method, path, contentType, token string, body []byte, aliased bool) (data []byte, status int, err error) {
	// Give context.Background() callers a real deadline; never tighten a
	// deadline the caller chose.
	if c.Timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.Timeout)
			defer cancel()
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if aliased && len(body) > 0 {
		f := &fence{}
		defer f.release()
		req.Body = f.reader(body)
		req.GetBody = func() (io.ReadCloser, error) { return f.reader(body), nil }
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if token != "" {
		req.Header.Set("Idempotency-Key", token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	// Read one byte past the response cap so an over-cap response is an
	// error here, not a silently truncated blob failing later.
	maxResp := c.MaxResponseBytes
	if maxResp <= 0 {
		maxResp = sumdsrv.MaxBodyBytes
	}
	data, err = io.ReadAll(io.LimitReader(resp.Body, maxResp+1))
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if int64(len(data)) > maxResp {
		return nil, resp.StatusCode, fmt.Errorf("sumd: response to %s %s exceeds %d bytes", method, path, maxResp)
	}
	if resp.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(data))
		var je struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &je) == nil && je.Error != "" {
			msg = je.Error
		}
		ae := &apiError{Status: resp.StatusCode, Message: msg}
		ae.RetryAfter, ae.HasRetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
		return nil, resp.StatusCode, ae
	}
	return data, resp.StatusCode, nil
}

// parseRetryAfter parses a Retry-After header value per RFC 9110 §10.2.3:
// either non-negative delta-seconds or an HTTP-date, which may be in any
// of the three formats http.ParseTime accepts. ok reports whether the
// value was usable; a zero duration with ok true means "retry
// immediately" — the old parser required secs > 0 and so dropped that
// hint, and never understood the date form at all. A date already in the
// past clamps to zero rather than going negative.
func parseRetryAfter(v string, now time.Time) (d time.Duration, ok bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if when, err := http.ParseTime(v); err == nil {
		d := when.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// AddBatch ships xs to the service as raw little-endian float64s — exact
// for every value, including non-finite ones. The body is the memory of
// xs itself, not a packed copy; xs must not be modified during the
// call, and is never read after it returns.
func (c *Client) AddBatch(ctx context.Context, xs []float64) error {
	_, err := c.doIdem(ctx, http.MethodPost, "/v1/add", "application/octet-stream", "", f64le.Encode(xs), true)
	return err
}

// SubBatch deletes xs from the service exactly — the inverse of AddBatch.
// The service's sum after any add/sub history is bit-identical to summing
// the surviving multiset from scratch (exact for every value, including
// non-finite ones: the deletion happens in the service's in-memory group
// representation). Like AddBatch, it sends the memory of xs without a
// copy and never reads xs after it returns.
func (c *Client) SubBatch(ctx context.Context, xs []float64) error {
	_, err := c.doIdem(ctx, http.MethodPost, "/v1/sub", "application/octet-stream", "", f64le.Encode(xs), true)
	return err
}

// errReleased fails a read of a fenced body after its call returned.
var errReleased = errors.New("sumd: request body read after the call returned")

// fence guards a request body that aliases caller-owned memory (the
// view of an AddBatch slice). The transport may still be reading a body
// after RoundTrip returns — a server that answers early, e.g. 413,
// without consuming it — while the caller, whose call has returned, may
// already be overwriting the slice. Every read of a fenced reader holds
// the fence's lock while it copies, and release takes that lock, so
// once release returns no read touches the memory again; later reads
// fail with errReleased.
type fence struct {
	mu       sync.Mutex
	released bool
}

func (f *fence) release() {
	f.mu.Lock()
	f.released = true
	f.mu.Unlock()
}

// reader returns a fresh reader over b behind the fence (one per
// transport attempt: GetBody calls it again for a retry).
func (f *fence) reader(b []byte) io.ReadCloser { return &fencedReader{f: f, b: b} }

type fencedReader struct {
	f *fence
	b []byte
}

func (r *fencedReader) Read(p []byte) (int, error) {
	r.f.mu.Lock()
	defer r.f.mu.Unlock()
	if r.f.released {
		return 0, errReleased
	}
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

func (r *fencedReader) Close() error { return nil }

// PushPartial merges a serialized wire partial (Accumulator.MarshalBinary
// or Sharded.SnapshotBytes) into the service.
func (c *Client) PushPartial(ctx context.Context, blob []byte) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/partial", "application/octet-stream", blob)
	return err
}

// Sum returns the service's correctly rounded exact sum. The value is
// reconstructed from the served IEEE bit pattern, so the client sees the
// service's bits exactly.
func (c *Client) Sum(ctx context.Context) (float64, error) {
	data, err := c.do(ctx, http.MethodGet, "/v1/sum", "", nil)
	if err != nil {
		return 0, err
	}
	var resp struct {
		Bits string `json:"bits"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return 0, fmt.Errorf("sumd: decoding sum response: %w", err)
	}
	bits, err := strconv.ParseUint(resp.Bits, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("sumd: bad bits field %q: %w", resp.Bits, err)
	}
	return math.Float64frombits(bits), nil
}

// SnapshotPartial returns the service's state as a wire partial, so a
// higher-level reducer can merge whole sumd instances.
func (c *Client) SnapshotPartial(ctx context.Context) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/partial", "", nil)
}

// Reset empties the service's accumulator.
func (c *Client) Reset(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/reset", "", nil)
	return err
}

// Combiner is the map-side combiner: a local dense superaccumulator plus
// the client to flush it through. It is not safe for concurrent use —
// each worker goroutine should own one.
type Combiner struct {
	c   *Client
	acc *accum.Dense
	n   int64 // values accumulated since the last staging

	// pending is a staged partial whose push has not been acknowledged:
	// Flush serializes-and-resets the accumulator into pending *before*
	// pushing, and clears it only on a 2xx. A failed or lost-response
	// Flush therefore leaves the partial staged, and the retry re-sends
	// the identical blob under the identical idempotency token — the
	// service either merges it (the first attempt never arrived) or
	// recognizes the token and no-ops (the response was lost after the
	// merge). Either way the values land exactly once.
	pending []byte
	token   string
}

// NewCombiner returns an empty Combiner flushing through c.
func (c *Client) NewCombiner() *Combiner {
	return &Combiner{c: c, acc: accum.NewDense(0)}
}

// Add accumulates x exactly into the local partial.
func (co *Combiner) Add(x float64) { co.acc.Add(x); co.n++ }

// AddSlice accumulates every element of xs exactly into the local partial.
func (co *Combiner) AddSlice(xs []float64) { co.acc.AddSlice(xs); co.n += int64(len(xs)) }

// Sub deletes x exactly from the local partial — retractions batch into
// the same combiner as insertions and flush in one hop. Exact for every
// value including non-finite ones: the partial codec carries signed
// special multiplicities, so a net retraction of a NaN or infinity
// survives the flush and cancels on the service.
func (co *Combiner) Sub(x float64) { co.acc.Sub(x); co.n++ }

// SubSlice deletes every element of xs exactly from the local partial.
func (co *Combiner) SubSlice(xs []float64) { co.acc.SubSlice(xs); co.n += int64(len(xs)) }

// Flush pushes the local partial to the service and resets the local
// accumulator so the Combiner can keep accumulating the next stretch of
// input. Flushing after every slice or once at the end yields the same
// final bits — merges are exact.
//
// Flush is safe to retry after any error: the partial is staged with an
// idempotency token before the first send (see Combiner.pending), so a
// retry can never double-apply it, even when the failure was a lost
// response to a push the service had in fact merged. A Flush with
// nothing staged and nothing accumulated is a no-op.
func (co *Combiner) Flush(ctx context.Context) error {
	if err := co.pushPending(ctx); err != nil {
		return err
	}
	if co.n == 0 {
		return nil
	}
	blob, err := core.MarshalDensePartial(co.acc)
	if err != nil {
		return err
	}
	co.acc.Reset()
	co.n = 0
	co.pending, co.token = blob, newIdemToken()
	return co.pushPending(ctx)
}

func (co *Combiner) pushPending(ctx context.Context) error {
	if co.pending == nil {
		return nil
	}
	if _, err := co.c.doIdem(ctx, http.MethodPost, "/v1/partial", "application/octet-stream", co.token, co.pending, false); err != nil {
		return err
	}
	co.pending, co.token = nil, ""
	return nil
}

// NewIdemToken returns a fresh idempotency token: 128 random bits in
// hex, drawn from crypto/rand so independent senders cannot collide.
// Generate one token per logical write and reuse it across every
// replica leg, retry, and hint replay of that write — the service
// dedups on the token, so the write lands exactly once per replica no
// matter how many deliveries it takes.
func NewIdemToken() string { return newIdemToken() }

// PushKeyedIdem merges a binary keyed envelope into the service under
// an explicit idempotency token (PushKeyed with caller-controlled
// dedup). It returns how many keys were merged — 0 with a nil error
// when the service recognized the token and deduplicated the push.
func (c *Client) PushKeyedIdem(ctx context.Context, token string, blob []byte) (int, error) {
	data, err := c.doIdem(ctx, http.MethodPost, "/v1/keyed/partial", "application/octet-stream", token, blob, false)
	if err != nil {
		return 0, err
	}
	return decodeMerged(data)
}

// newIdemToken returns a fresh idempotency token: 128 random bits in
// hex, drawn from crypto/rand so independent workers cannot collide.
func newIdemToken() string {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		// No entropy is a broken platform; fall back to the jitter
		// source rather than fail the flush.
		for i := range b {
			b[i] = byte(rand.Int64N(256))
		}
	}
	return hex.EncodeToString(b[:])
}
