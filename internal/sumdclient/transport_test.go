package sumdclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsum"
	"parsum/internal/keyed"
	"parsum/internal/sumdsrv"
)

// connServer is an httptest server that counts the connections it
// accepts and closes.
type connServer struct {
	*httptest.Server
	opened, closed atomic.Int64
}

func startConnServer(t *testing.T, h http.Handler) *connServer {
	t.Helper()
	cs := &connServer{Server: httptest.NewUnstartedServer(h)}
	cs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			cs.opened.Add(1)
		case http.StateClosed, http.StateHijacked:
			cs.closed.Add(1)
		}
	}
	cs.Start()
	t.Cleanup(cs.Close)
	return cs
}

// waitClosed waits until the server has seen n connections close.
func (cs *connServer) waitClosed(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for cs.closed.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("server saw %d of %d connections close", cs.closed.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// sumdServer starts a sumd service behind a connServer.
func sumdServer(t *testing.T, opt sumdsrv.Options) *connServer {
	t.Helper()
	srv, err := sumdsrv.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return startConnServer(t, srv)
}

// transportClient returns a client over a fresh NewTransport for base,
// and the transport for inspection.
func transportClient(base string) (*Client, *transport) {
	rt := NewTransport(base)
	return New(base, &http.Client{Transport: rt}), rt.(*transport)
}

func (t *transport) idleLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.idle)
}

func TestTransportKeepsOneConnectionAlive(t *testing.T) {
	cs := sumdServer(t, sumdsrv.Options{})
	c, tr := transportClient(cs.URL)
	ctx := context.Background()
	var xs []float64
	for i := 0; i < 50; i++ {
		batch := []float64{float64(i) * 0.1, 1e100, -1e100}
		xs = append(xs, batch...)
		if err := c.AddKeyed(ctx, "k", batch); err != nil {
			t.Fatal(err)
		}
		if _, err := c.PushKeyedIdem(ctx, NewIdemToken(), envelopeOf(t, "e", batch)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.SumKey(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := c.SumKey(ctx, "k")
	if err != nil || !ok || math.Float64bits(v) != math.Float64bits(parsum.Sum(xs)) {
		t.Fatalf("sum %v ok=%t err=%v, want %v", v, ok, err, parsum.Sum(xs))
	}
	if n := cs.opened.Load(); n != 1 {
		t.Errorf("150 sequential requests opened %d connections, want 1", n)
	}
	if n := tr.idleLen(); n != 1 {
		t.Errorf("%d idle connections after the run, want 1", n)
	}
}

func envelopeOf(t *testing.T, key string, xs []float64) []byte {
	t.Helper()
	st := keyed.New(keyed.Options{Partitions: 1})
	st.Add(key, xs)
	blob, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestTransportStaleConnectionReplay: after the backend drops every
// connection (closed, or the process restarted on the same address),
// the next request meets a stale pooled connection. A GET and a tokened
// POST are re-sent once on a fresh dial; an untokened POST fails and is
// not re-sent.
func TestTransportStaleConnectionReplay(t *testing.T) {
	for _, restart := range []bool{false, true} {
		t.Run(fmt.Sprintf("restart=%t", restart), func(t *testing.T) {
			srv, err := sumdsrv.New(sumdsrv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var pushes atomic.Int64
			h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost {
					pushes.Add(1)
				}
				srv.ServeHTTP(w, r)
			})
			hs := httptest.NewServer(h)
			defer func() { hs.Close() }()
			addr := hs.Listener.Addr().String()
			c, tr := transportClient(hs.URL)
			ctx := context.Background()
			drop := func() {
				t.Helper()
				if tr.idleLen() == 0 {
					t.Fatal("no pooled connection to go stale")
				}
				if !restart {
					hs.CloseClientConnections()
					return
				}
				hs.Close()
				ln, err := net.Listen("tcp", addr)
				if err != nil {
					t.Skipf("cannot rebind %s: %v", addr, err)
				}
				hs = httptest.NewUnstartedServer(h)
				hs.Listener.Close()
				hs.Listener = ln
				hs.Start()
			}

			if err := c.AddKeyed(ctx, "k", []float64{1}); err != nil {
				t.Fatal(err)
			}
			drop()
			if _, _, err := c.SumKey(ctx, "k"); err != nil {
				t.Fatalf("GET on a stale connection: %v", err)
			}
			drop()
			before := pushes.Load()
			if n, err := c.PushKeyedIdem(ctx, NewIdemToken(), envelopeOf(t, "k", []float64{2})); err != nil || n != 1 {
				t.Fatalf("tokened POST on a stale connection: merged %d, %v", n, err)
			}
			if got := pushes.Load() - before; got != 1 {
				t.Errorf("tokened POST reached the backend %d times, want 1", got)
			}
			drop()
			before = pushes.Load()
			if err := c.AddKeyed(ctx, "k", []float64{4}); err == nil {
				t.Fatal("untokened POST on a stale connection succeeded; it must not be re-sent")
			}
			if got := pushes.Load() - before; got != 0 {
				t.Errorf("untokened POST reached the backend %d times, want 0", got)
			}
			// The failure cleared the pool; the next request dials.
			v, _, err := c.SumKey(ctx, "k")
			if err != nil || v != 3 {
				t.Fatalf("sum after the failed POST: %v, %v; want 3", v, err)
			}
		})
	}
}

// stallServer writes a reply head and half its body, then stalls until
// released — a backend hung mid-reply.
func stallServer(t *testing.T) *connServer {
	t.Helper()
	release := make(chan struct{})
	cs := startConnServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fast" {
			io.WriteString(w, `{"merged":1}`)
			return
		}
		w.Header().Set("Content-Length", "64")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, strings.Repeat("x", 32))
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() { close(release) })
	return cs
}

// TestTransportDeadlineAndCancelMidReply: a reply stalled mid-body
// fails the call with the context's error when its deadline passes or
// it is cancelled, and the connection is closed, not pooled.
func TestTransportDeadlineAndCancelMidReply(t *testing.T) {
	for _, cancel := range []bool{false, true} {
		t.Run(fmt.Sprintf("cancel=%t", cancel), func(t *testing.T) {
			cs := stallServer(t)
			c, tr := transportClient(cs.URL)
			if _, err := c.do(context.Background(), http.MethodGet, "/fast", "", nil); err != nil {
				t.Fatal(err)
			}
			if tr.idleLen() != 1 {
				t.Fatalf("%d idle connections after a full reply, want 1", tr.idleLen())
			}
			ctx, stop := context.WithTimeout(context.Background(), 50*time.Millisecond)
			want := context.DeadlineExceeded
			if cancel {
				stop()
				ctx, stop = context.WithCancel(context.Background())
				want = context.Canceled
				time.AfterFunc(50*time.Millisecond, stop)
			}
			defer stop()
			start := time.Now()
			_, err := c.do(ctx, http.MethodGet, "/stall", "", nil)
			if !errors.Is(err, want) {
				t.Fatalf("err = %v, want %v", err, want)
			}
			if d := time.Since(start); d > 3*time.Second {
				t.Fatalf("stalled call took %v", d)
			}
			if n := tr.idleLen(); n != 0 {
				t.Errorf("%d idle connections after a stalled reply, want 0", n)
			}
			cs.waitClosed(t, 1)
		})
	}
}

// TestTransportConnectionCloseAndPartialBodyNotReused: a reply saying
// Connection: close, and a body closed before its end, both end their
// connection.
func TestTransportConnectionCloseAndPartialBodyNotReused(t *testing.T) {
	cs := startConnServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/close" {
			w.Header().Set("Connection", "close")
		}
		io.WriteString(w, strings.Repeat("y", 10000))
	}))
	rt := NewTransport(cs.URL)
	tr := rt.(*transport)
	hc := &http.Client{Transport: rt}

	resp, err := hc.Get(cs.URL + "/close")
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := io.ReadAll(resp.Body); len(data) != 10000 {
		t.Fatalf("read %d bytes, want 10000", len(data))
	}
	resp.Body.Close()
	if n := tr.idleLen(); n != 0 {
		t.Errorf("Connection: close reply left %d idle connections, want 0", n)
	}
	cs.waitClosed(t, 1)

	resp, err = hc.Get(cs.URL + "/partial")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := resp.Body.Read(make([]byte, 1)); err == nil {
		t.Error("read after Close succeeded")
	}
	if n := tr.idleLen(); n != 0 {
		t.Errorf("partly read body left %d idle connections, want 0", n)
	}
	cs.waitClosed(t, 2)

	resp, err = hc.Get(cs.URL + "/whole")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if n := tr.idleLen(); n != 1 {
		t.Errorf("fully read body left %d idle connections, want 1", n)
	}
	if n := cs.opened.Load(); n != 3 {
		t.Errorf("opened %d connections, want 3", n)
	}
}

// TestTransportEarly413: a backend that refuses a body before reading
// it answers 413; the caller gets the 413, not the failed body write.
func TestTransportEarly413(t *testing.T) {
	plain := startConnServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		io.WriteString(w, `{"error":"too large"}`)
	}))
	sumd := sumdServer(t, sumdsrv.Options{MaxBodyBytes: 1 << 16})
	xs := make([]float64, 1<<20) // 8 MiB: far more than the socket buffers hold
	for _, base := range []string{plain.URL, sumd.URL} {
		c, _ := transportClient(base)
		for round := 0; round < 3; round++ {
			err := c.AddBatch(context.Background(), xs)
			if ErrorStatus(err) != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s round %d: err = %v, want a 413", base, round, err)
			}
			for i := range xs {
				xs[i] = float64(round)
			}
		}
	}
	c, _ := transportClient(sumd.URL)
	if v, err := c.Sum(context.Background()); err != nil || v != 0 {
		t.Fatalf("sum after refused bodies: %v, %v; want 0", v, err)
	}
}

// TestTransportChunkedAndLargeReplies: a chunked reply and a PullKeyed
// envelope of hundreds of kilobytes arrive whole, and the connection is
// reused after each.
func TestTransportChunkedAndLargeReplies(t *testing.T) {
	chunked := startConnServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 5; i++ {
			fmt.Fprintf(w, `{"part":%d}`, i)
			w.(http.Flusher).Flush()
		}
	}))
	c, tr := transportClient(chunked.URL)
	for i := 0; i < 3; i++ {
		data, err := c.do(context.Background(), http.MethodGet, "/", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := `{"part":0}{"part":1}{"part":2}{"part":3}{"part":4}`; string(data) != want {
			t.Fatalf("chunked reply %q, want %q", data, want)
		}
	}
	if chunked.opened.Load() != 1 || tr.idleLen() != 1 {
		t.Errorf("chunked replies: opened %d connections, %d idle; want 1 and 1", chunked.opened.Load(), tr.idleLen())
	}

	cs := sumdServer(t, sumdsrv.Options{})
	local := keyed.New(keyed.Options{})
	for k := 0; k < 20000; k++ {
		local.Add(fmt.Sprintf("key-%05d", k), []float64{float64(k), 1e-300 * float64(k)})
	}
	blob, err := local.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	c, tr = transportClient(cs.URL)
	if _, err := c.PushKeyed(context.Background(), blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := c.PullKeyed(context.Background(), "", "")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blob) {
			t.Fatalf("pulled %d bytes, differing from the %d pushed", len(got), len(blob))
		}
	}
	if len(blob) < 512<<10 || cs.opened.Load() != 1 || tr.idleLen() != 1 {
		t.Errorf("%d-byte envelope: opened %d connections, %d idle; want over 512 KiB, 1 and 1", len(blob), cs.opened.Load(), tr.idleLen())
	}
}

// TestTransportIdleCap: however many connections a burst opens, at
// most maxIdleConns stay idle; the rest close.
func TestTransportIdleCap(t *testing.T) {
	const burst = maxIdleConns + 6
	var arrived sync.WaitGroup
	arrived.Add(burst)
	gate := make(chan struct{})
	cs := startConnServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Done()
		<-gate
		io.WriteString(w, "ok")
	}))
	c, tr := transportClient(cs.URL)
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.do(context.Background(), http.MethodGet, "/", "", nil)
			errs <- err
		}()
	}
	arrived.Wait() // every request holds its own connection
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := tr.idleLen(); n != maxIdleConns {
		t.Errorf("%d idle connections after a burst of %d, want %d", n, burst, maxIdleConns)
	}
	cs.waitClosed(t, burst-maxIdleConns)
	c.CloseIdleConnections()
	if n := tr.idleLen(); n != 0 {
		t.Errorf("%d idle connections after CloseIdleConnections, want 0", n)
	}
	cs.waitClosed(t, burst)
}

// TestTransportRejectsOtherTargets: the transport sends only to its
// backend, over plain HTTP.
func TestTransportRejectsOtherTargets(t *testing.T) {
	rt := NewTransport("http://127.0.0.1:1")
	for _, target := range []string{"https://127.0.0.1:1/v1/sum", "http://127.0.0.1:2/v1/sum", "http://localhost:1/v1/sum"} {
		req, _ := http.NewRequest(http.MethodGet, target, nil)
		if _, err := rt.RoundTrip(req); err == nil || !strings.Contains(err.Error(), "cannot send") {
			t.Errorf("%s: err = %v, want a refusal", target, err)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, "http://x/v1/sum", nil)
	if _, err := NewTransport("https://x").RoundTrip(req); err == nil {
		t.Error("a transport for an https base sent a request")
	}
}
