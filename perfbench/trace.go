package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Trace; Parent is the span that caused this one (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) dur() int64         { return s.End - s.Start }

// spanRef names a span so that the spans it causes can point at it.
type spanRef struct{ trace, id uint64 }

type ctxKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, ctxKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(ctxKey{}).(spanRef)
	return ref, ok
}

// traceHeader carries "<trace>.<parent span>" in hex from the benchmark's
// client transport, and from the proxy's backend legs, to the server
// wrappers.
const traceHeader = "X-Perfbench-Span"

// tracer keeps spans in memory until the run ends. A nil *tracer is
// valid and records nothing, so untraced runs pay one nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (a zero parent starts a new trace).
func (t *tracer) begin(name string, parent spanRef) span {
	s := span{Trace: parent.trace, ID: t.ids.Add(1), Parent: parent.id, Name: name}
	if s.Trace == 0 {
		s.Trace = s.ID
	}
	s.Start = t.now()
	return s
}

// root opens a span that starts a new trace and returns ctx carrying
// it. On a nil tracer it returns ctx unchanged.
func (t *tracer) root(ctx context.Context, name string) (context.Context, span) {
	if t == nil {
		return ctx, span{}
	}
	s := t.begin(name, spanRef{})
	return withSpan(ctx, spanRef{s.Trace, s.ID}), s
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseRef(v string) (spanRef, bool) {
	var ref spanRef
	if _, err := fmt.Sscanf(v, "%x.%x", &ref.trace, &ref.id); err != nil {
		return spanRef{}, false
	}
	return ref, true
}

// tracedHandler records a span around h.ServeHTTP, parented by the
// caller's header, and puts it in the request context for h's own
// outgoing calls (the proxy passes that context to its backend legs).
type tracedHandler struct {
	t    *tracer
	tier string // "sumd" or "proxy"
	h    http.Handler
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := parseRef(r.Header.Get(traceHeader))
	s := th.t.begin(routeName(th.tier, r), parent)
	th.h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), spanRef{s.Trace, s.ID})))
	th.t.end(s)
}

// routeName names a server span by tier and route; a keyed sum read is
// its own route.
func routeName(tier string, r *http.Request) string {
	name := tier + " " + r.Method + " " + r.URL.Path
	if r.URL.Path == "/v1/sum" && r.URL.Query().Has("key") {
		name += "?key"
	}
	return name
}

// traceHandler wraps h when tracing is on and returns it unchanged
// otherwise.
func traceHandler(t *tracer, tier string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return tracedHandler{t: t, tier: tier, h: h}
}

// headerTransport stamps the span in the request context into the trace
// header: the benchmark's client transport.
type headerTransport struct{ base http.RoundTripper }

func (ht headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := spanFrom(r.Context()); ok {
		r = r.Clone(r.Context())
		r.Header.Set(traceHeader, fmt.Sprintf("%x.%x", ref.trace, ref.id))
	}
	return ht.base.RoundTrip(r)
}

// legTransport is the proxy's per-backend transport in traced runs: each
// backend leg becomes a span under the proxy's serve span, ending when
// the proxy has read and closed the reply.
type legTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (lt legTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	parent, _ := spanFrom(r.Context())
	s := lt.t.begin("proxy.leg", parent)
	r = r.Clone(withSpan(r.Context(), spanRef{s.Trace, s.ID}))
	r.Header.Set(traceHeader, fmt.Sprintf("%x.%x", s.Trace, s.ID))
	resp, err := lt.base.RoundTrip(r)
	if err != nil {
		lt.t.end(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { lt.t.end(s) }}
	return resp, nil
}

// spanBody ends its span once, when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
