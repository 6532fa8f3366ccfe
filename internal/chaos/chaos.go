// Package chaos is the fault-injection harness behind the multi-node
// robustness gauntlet: an http.RoundTripper wrapper that subjects every
// request to a deterministic seeded schedule of network pathologies —
// drops, connection resets, 5xx bursts, latency spikes, and full
// partitions — so the proxy/replication stack can be driven through
// crash-and-heal scenarios that are reproducible bit for bit.
//
// The five faults map onto the distinct failure semantics a distributed
// writer must survive:
//
//   - Drop: the request never reaches the backend (connection refused).
//     NOT applied; the client sees a transport error.
//   - Reset: the request reaches the backend and is fully processed,
//     but the response is destroyed (connection reset after send).
//     APPLIED but unacknowledged — the case idempotency tokens exist
//     for: a blind retry must not double-apply.
//   - Err5xx: the harness answers 503 without forwarding (an overloaded
//     or crashing backend). NOT applied. Bursty: one draw infects the
//     next BurstLen-1 requests, modeling correlated failure.
//   - Latency: the request is delayed by a seeded duration, then
//     forwarded normally. APPLIED, slowly — the fault that trips
//     timeouts and circuit breakers on otherwise healthy traffic.
//   - Partition: while set, every request fails unsent (a severed
//     link). NOT applied. Toggled explicitly (Partition/Heal) so tests
//     and schedules control exactly when a backend disappears and
//     returns.
//
// Determinism: every request consumes exactly two draws from the seeded
// generator (fault selector, latency fraction) whatever the outcome, so
// the fault schedule is a pure function of (seed, request index). Under
// sequential load the injected sequence is exactly reproducible; under
// concurrent load the per-request decisions are serialized by an
// internal mutex, so the multiset of injected faults for a given seed
// and request count is still reproducible even when arrival order is
// not.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Faults injected by the harness. Both satisfy errors.Is against
// themselves after the %w wrapping RoundTrip applies.
var (
	// ErrDropped is returned for a dropped request: never sent, nothing
	// applied.
	ErrDropped = errors.New("chaos: request dropped")
	// ErrReset is returned for a connection reset: the request WAS
	// delivered and processed; only the response was lost.
	ErrReset = errors.New("chaos: connection reset by peer")
	// ErrPartitioned is returned while the injector is partitioned:
	// never sent, nothing applied.
	ErrPartitioned = errors.New("chaos: network partitioned")
)

// Options configures an Injector. Probabilities are per-request and
// evaluated in order drop, reset, 5xx, latency from a single uniform
// draw, so their sum must be at most 1.
type Options struct {
	// Seed fixes the fault schedule. The same seed and request sequence
	// reproduce the same faults; two injectors with different seeds are
	// independent.
	Seed uint64
	// PDrop, PReset, P5xx, PLatency are the per-request fault
	// probabilities in [0,1], summing to at most 1.
	PDrop, PReset, P5xx, PLatency float64
	// Latency is the maximum injected delay; an injected spike sleeps a
	// seeded uniform draw from [Latency/2, Latency). 0 means 10ms.
	Latency time.Duration
	// BurstLen makes 5xx faults bursty: a 5xx draw also infects the
	// following BurstLen-1 requests. 0 or 1 means independent 5xxs.
	BurstLen int
	// Next is the wrapped transport; nil means http.DefaultTransport.
	Next http.RoundTripper
}

// Counts is a point-in-time copy of the injector's ledger. Requests is
// the total seen; the remaining fields partition it.
type Counts struct {
	Requests    int64 // every RoundTrip call
	Passed      int64 // forwarded untouched
	Drops       int64 // failed unsent (ErrDropped)
	Resets      int64 // forwarded, response destroyed (ErrReset)
	Errs5xx     int64 // answered 503 without forwarding
	Latencies   int64 // delayed, then forwarded
	Partitioned int64 // failed unsent while partitioned (ErrPartitioned)
}

// ClientErrors returns how many requests surfaced as transport errors
// to the client: drops, resets, and partition rejections. (5xxs arrive
// as responses, latency and passes as successes.)
func (c Counts) ClientErrors() int64 { return c.Drops + c.Resets + c.Partitioned }

// Delivered returns how many requests actually reached the backend:
// passes, latency-delayed passes, and resets (delivered, unacked).
func (c Counts) Delivered() int64 { return c.Passed + c.Latencies + c.Resets }

// Injector is the fault-injecting RoundTripper. Create one per backend
// (each with its own seed) and install it as that backend's
// http.Client transport. Safe for concurrent use.
type Injector struct {
	opt  Options
	next http.RoundTripper

	mu        sync.Mutex
	rng       *rand.Rand
	burstLeft int
	part      bool
	c         Counts
}

// New returns an Injector for opt. It panics when the probabilities are
// malformed — a misconfigured harness must fail the test loudly, not
// skew its schedule silently.
func New(opt Options) *Injector {
	for _, p := range []float64{opt.PDrop, opt.PReset, opt.P5xx, opt.PLatency} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("chaos: probability %v outside [0,1]", p))
		}
	}
	if s := opt.PDrop + opt.PReset + opt.P5xx + opt.PLatency; s > 1 {
		panic(fmt.Sprintf("chaos: probabilities sum to %v > 1", s))
	}
	if opt.Latency <= 0 {
		opt.Latency = 10 * time.Millisecond
	}
	next := opt.Next
	if next == nil {
		next = http.DefaultTransport
	}
	return &Injector{
		opt:  opt,
		next: next,
		rng:  rand.New(rand.NewPCG(opt.Seed, opt.Seed^0x9e3779b97f4a7c15)),
	}
}

// Partition severs the link: every subsequent request fails unsent
// until Heal.
func (in *Injector) Partition() {
	in.mu.Lock()
	in.part = true
	in.mu.Unlock()
}

// Heal restores the link.
func (in *Injector) Heal() {
	in.mu.Lock()
	in.part = false
	in.mu.Unlock()
}

// Partitioned reports whether the link is currently severed.
func (in *Injector) Partitioned() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.part
}

// Quiesce stops injecting faults for the rest of the injector's life
// (heals a partition too): the "fault window is over, let the system
// converge" switch the e2e gauntlet flips before asserting recovery.
func (in *Injector) Quiesce() {
	in.mu.Lock()
	in.part = false
	in.opt.PDrop, in.opt.PReset, in.opt.P5xx, in.opt.PLatency = 0, 0, 0, 0
	in.burstLeft = 0
	in.mu.Unlock()
}

// Counts returns a copy of the ledger.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.c
}

// verdict is one scheduled decision.
type verdict int

const (
	vPass verdict = iota
	vDrop
	vReset
	v5xx
	vLatency
	vPartitioned
)

// decide consumes exactly two draws and returns the verdict plus the
// latency to apply (vLatency only).
func (in *Injector) decide() (verdict, time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.c.Requests++
	// Two draws per request, always, so the schedule depends only on
	// (seed, request index) — never on earlier verdicts or timing.
	u := in.rng.Float64()
	lf := in.rng.Float64()
	if in.part {
		in.c.Partitioned++
		return vPartitioned, 0
	}
	if in.burstLeft > 0 {
		in.burstLeft--
		in.c.Errs5xx++
		return v5xx, 0
	}
	switch {
	case u < in.opt.PDrop:
		in.c.Drops++
		return vDrop, 0
	case u < in.opt.PDrop+in.opt.PReset:
		in.c.Resets++
		return vReset, 0
	case u < in.opt.PDrop+in.opt.PReset+in.opt.P5xx:
		in.c.Errs5xx++
		if in.opt.BurstLen > 1 {
			in.burstLeft = in.opt.BurstLen - 1
		}
		return v5xx, 0
	case u < in.opt.PDrop+in.opt.PReset+in.opt.P5xx+in.opt.PLatency:
		in.c.Latencies++
		d := in.opt.Latency/2 + time.Duration(lf*float64(in.opt.Latency/2))
		return vLatency, d
	default:
		in.c.Passed++
		return vPass, 0
	}
}

// RoundTrip implements http.RoundTripper under the fault schedule.
func (in *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	v, delay := in.decide()
	switch v {
	case vPartitioned:
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, ErrPartitioned)
	case vDrop:
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, ErrDropped)
	case v5xx:
		return synthesized503(req), nil
	case vLatency:
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-req.Context().Done():
			t.Stop()
			return nil, req.Context().Err()
		}
		return in.next.RoundTrip(req)
	case vReset:
		// Deliver the request — the backend processes it — then destroy
		// the response: the applied-but-unacknowledged case.
		resp, err := in.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, ErrReset)
	default:
		return in.next.RoundTrip(req)
	}
}

// CloseIdleConnections closes the wrapped transport's idle connections,
// when it keeps any — so http.Client.CloseIdleConnections reaches
// through the injector.
func (in *Injector) CloseIdleConnections() {
	if c, ok := in.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// synthesized503 fabricates the overloaded-backend response without
// touching the backend.
func synthesized503(req *http.Request) *http.Response {
	const body = `{"error":"chaos: injected backend failure"}`
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}
