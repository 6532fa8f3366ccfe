package sumdclient

// Replica-leg transport: a synchronous keep-alive HTTP/1.1
// RoundTripper for one sumd backend. http.Transport hands every request
// to two goroutines per connection (a read loop and a write loop) and
// wakes the caller through channels; the proxy fans every write out to
// R backends, so that hand-off was a third of its CPU. Here the caller's
// goroutine does the whole exchange itself — net/http's own
// Request.Write on the way out, http.ReadResponse on the way back — on
// a pooled connection, and nothing runs while a connection sits idle.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"
)

// maxIdleConns caps the idle keep-alive connections kept per backend;
// a connection released over the cap is closed.
const maxIdleConns = 16

// dialer opens backend connections; the request context bounds the
// dial.
var dialer = net.Dialer{KeepAlive: 30 * time.Second}

// errBodyClosed is a read of a reply body after its Close.
var errBodyClosed = errors.New("sumd: read on closed response body")

// transport is the RoundTripper NewTransport returns.
type transport struct {
	addr string // host:port every request must target; "" for a bad base

	mu   sync.Mutex
	idle []*persistConn // LIFO: the most recently used connection is reused first
}

// persistConn is one keep-alive connection with its buffers.
type persistConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// NewTransport returns a synchronous keep-alive HTTP/1.1 RoundTripper
// for the sumd service at base (an http:// URL; sumd serves nothing
// else). It sends only to base's host, over at most maxIdleConns idle
// connections kept between requests.
//
// Connection lifecycle: a request takes the most recently idled
// connection, or dials one. The context's deadline becomes the
// connection's deadline, and cancelling the context expires it at once
// (context.AfterFunc), so a hung backend fails the read or write in
// flight. The connection goes back to the idle pool only once the reply
// body has been read to its end, the reply did not ask to close, and the
// cancellation hook was stopped before it fired; otherwise it is closed.
// A body closed early therefore closes its connection.
//
// Replay: a reused connection can turn out stale — the backend closed or
// restarted while it sat idle. When a request fails on a reused
// connection before any reply byte arrived, it is re-sent once on a
// fresh dial, but only if net/http would replay it too: a GET or HEAD,
// or a request carrying an Idempotency-Key, whose body can be rewound.
// An untokened POST is never re-sent. The stale connection's idle
// siblings are closed with it.
//
// A request whose body write fails still reads the reply: a backend that
// answers before reading the body (413 for an oversized one) has its
// reply waiting, and the caller gets that reply, not the write error.
func NewTransport(base string) http.RoundTripper {
	t := &transport{}
	if u, err := url.Parse(base); err == nil && u.Scheme == "http" && u.Host != "" {
		t.addr = hostPort(u)
	}
	return t
}

// hostPort is u's dial address, with the default port filled in.
func hostPort(u *url.URL) string {
	if u.Port() != "" {
		return u.Host
	}
	return net.JoinHostPort(u.Hostname(), "80")
}

// RoundTrip implements http.RoundTripper.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.addr == "" || req.URL.Scheme != "http" || hostPort(req.URL) != t.addr {
		closeBody(req)
		return nil, fmt.Errorf("sumd: transport for %q cannot send to %s", t.addr, req.URL.Redacted())
	}
	ctx := req.Context()
	pc, reused, err := t.conn(ctx, false)
	if err != nil {
		closeBody(req)
		return nil, err
	}
	resp, stale, err := t.exchange(ctx, pc, req)
	if err == nil || !reused || !stale || ctx.Err() != nil || !replayable(req) {
		return resp, err
	}
	// Connections idled beside the stale one most likely went with it.
	t.CloseIdleConnections()
	if req, err = rewound(req); err != nil {
		return nil, err
	}
	if pc, _, err = t.conn(ctx, true); err != nil {
		closeBody(req)
		return nil, err
	}
	resp, _, err = t.exchange(ctx, pc, req)
	return resp, err
}

// CloseIdleConnections closes every idle connection; connections in use
// are closed when their exchange ends. http.Client.CloseIdleConnections
// calls it.
func (t *transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, pc := range idle {
		pc.nc.Close()
	}
}

// conn returns an idle connection (reused true) or, when there is none
// or fresh is set, a newly dialed one.
func (t *transport) conn(ctx context.Context, fresh bool) (pc *persistConn, reused bool, err error) {
	if !fresh {
		t.mu.Lock()
		if n := len(t.idle); n > 0 {
			pc = t.idle[n-1]
			t.idle[n-1] = nil
			t.idle = t.idle[:n-1]
		}
		t.mu.Unlock()
		if pc != nil {
			return pc, true, nil
		}
	}
	nc, err := dialer.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, false, err
	}
	return &persistConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, false, nil
}

// release ends pc's exchange: back to the idle pool when reuse holds,
// the cancellation hook had not fired, and the pool has room; closed
// otherwise.
func (t *transport) release(pc *persistConn, stop func() bool, reuse bool) {
	if stop() && reuse && pc.br.Buffered() == 0 {
		t.mu.Lock()
		if len(t.idle) < maxIdleConns {
			t.idle = append(t.idle, pc)
			pc = nil
		}
		t.mu.Unlock()
	}
	if pc != nil {
		pc.nc.Close()
	}
}

// aLongTimeAgo is a deadline already past: setting it fails every
// pending and future read and write on the connection at once.
var aLongTimeAgo = time.Unix(1, 0)

// exchange writes req on pc and reads the reply head. stale reports
// that the exchange failed before any reply byte arrived — what a
// connection the backend had already closed looks like. On error pc is
// closed; on success it belongs to the reply body (see body).
func (t *transport) exchange(ctx context.Context, pc *persistConn, req *http.Request) (resp *http.Response, stale bool, err error) {
	dl, _ := ctx.Deadline()
	pc.nc.SetDeadline(dl) // the zero time, for a context without one, clears it
	stop := context.AfterFunc(ctx, func() { pc.nc.SetDeadline(aLongTimeAgo) })
	werr := req.Write(pc.bw) // closes req.Body
	if werr == nil {
		werr = pc.bw.Flush()
	}
	// Read on even after a failed write: a backend that answered early
	// has its reply waiting.
	if _, err = pc.br.Peek(1); err != nil {
		stop()
		pc.nc.Close()
		if werr != nil {
			err = werr
		}
		return nil, true, ctxErr(ctx, err)
	}
	if resp, err = http.ReadResponse(pc.br, req); err != nil {
		stop()
		pc.nc.Close()
		return nil, false, ctxErr(ctx, err)
	}
	// A half-written request leaves the connection mid-message.
	reuse := werr == nil && !resp.Close && !req.Close
	if resp.Body == http.NoBody {
		t.release(pc, stop, reuse)
		return resp, false, nil
	}
	resp.Body = &body{rc: resp.Body, ctx: ctx, t: t, pc: pc, stop: stop, reuse: reuse}
	return resp, false, nil
}

// body is a reply body holding its connection: reading it to the end
// releases the connection (to the pool when it may be reused), closing
// it before the end closes the connection. Not safe for concurrent use.
type body struct {
	rc    io.ReadCloser // http.ReadResponse's body over pc.br
	ctx   context.Context
	t     *transport
	pc    *persistConn // nil once released
	stop  func() bool
	reuse bool
	err   error // what Read returns once released
}

func (b *body) Read(p []byte) (int, error) {
	if b.pc == nil {
		return 0, b.err
	}
	n, err := b.rc.Read(p)
	if err != nil {
		eof := err == io.EOF
		b.t.release(b.pc, b.stop, eof && b.reuse)
		b.pc = nil
		if !eof {
			err = ctxErr(b.ctx, err)
		}
		b.err = err
	}
	return n, err
}

func (b *body) Close() error {
	if b.pc != nil {
		// The rest of the body is still on the wire.
		b.t.release(b.pc, b.stop, false)
		b.pc = nil
		b.err = errBodyClosed
	}
	return nil
}

// ctxErr reports a failure caused by the context as the context's
// error: its deadline (which the connection's deadline mirrors) or its
// cancellation.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if dl, ok := ctx.Deadline(); ok && errors.Is(err, os.ErrDeadlineExceeded) && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return err
}

// replayable is net/http's rule for re-sending a request that may
// have reached the server: an idempotent method or an Idempotency-Key,
// and a body that can be produced again.
func replayable(req *http.Request) bool {
	if req.Body != nil && req.Body != http.NoBody && req.GetBody == nil {
		return false
	}
	switch req.Method {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	_, tok := req.Header["Idempotency-Key"]
	_, xtok := req.Header["X-Idempotency-Key"]
	return tok || xtok
}

// rewound returns req ready to send again: the same request with a
// fresh body from GetBody.
func rewound(req *http.Request) (*http.Request, error) {
	if req.Body == nil || req.Body == http.NoBody {
		return req, nil
	}
	b, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	r := req.Clone(req.Context())
	r.Body = b
	return r, nil
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}
