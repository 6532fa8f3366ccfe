// Tests of the raw /v1/add and /v1/sub read path: octet-stream bodies
// are read straight into pooled value buffers, so the edge contract
// (413 before any read, 400 for misaligned or truncated bodies, chunked
// bodies still accepted) and the pool's safety (no recycled buffer ever
// leaks values into another request, and no buffer is recycled while an
// abandoned batch is still queued on it) are pinned here.
package sumdsrv_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parsum"
	"parsum/internal/gen"
	"parsum/internal/sumdsrv"
)

func leBytes(xs []float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// readSpy is a request body that records whether the handler read it.
type readSpy struct {
	r    io.Reader
	read bool
}

func (s *readSpy) Read(p []byte) (int, error) { s.read = true; return s.r.Read(p) }

// serveRaw sends one octet-stream request through the handler in
// process. contentLength overrides the declared length (-1 = unknown,
// i.e. chunked).
func serveRaw(srv *sumdsrv.Server, path string, body io.Reader, contentLength int64) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, body)
	req.Header.Set("Content-Type", "application/octet-stream")
	req.ContentLength = contentLength
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestRawBodyEdgeContract(t *testing.T) {
	srv, err := sumdsrv.New(sumdsrv.Options{MaxBodyBytes: 80})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	seed := []float64{1.5, -0.25}
	if rec := serveRaw(srv, "/v1/add", strings.NewReader(string(leBytes(seed))), 16); rec.Code != http.StatusOK {
		t.Fatalf("seed add: %d %s", rec.Code, rec.Body)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	before := sumBits(t, hs)

	for _, path := range []string{"/v1/add", "/v1/sub", "/v1/add?key=k"} {
		// A declared length over the cap is refused before any read.
		spy := &readSpy{r: strings.NewReader(strings.Repeat("x", 88))}
		if rec := serveRaw(srv, path, spy, 88); rec.Code != http.StatusRequestEntityTooLarge || spy.read {
			t.Errorf("%s Content-Length 88 > cap 80: got %d (body read: %v), want 413 unread", path, rec.Code, spy.read)
		}
		// A chunked body over the cap is cut off by the cap reader.
		if rec := serveRaw(srv, path, strings.NewReader(string(leBytes(make([]float64, 11)))), -1); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s chunked 88 bytes: got %d, want 413", path, rec.Code)
		}
		// Misaligned, declared or not.
		for _, cl := range []int64{12, -1} {
			if rec := serveRaw(srv, path, strings.NewReader("0123456789ab"), cl); rec.Code != http.StatusBadRequest {
				t.Errorf("%s 12-byte body (Content-Length %d): got %d, want 400", path, cl, rec.Code)
			}
		}
		// A body that ends before its declared length.
		if rec := serveRaw(srv, path, strings.NewReader(string(leBytes([]float64{7, 8}))), 24); rec.Code != http.StatusBadRequest {
			t.Errorf("%s 16 of 24 declared bytes: got %d, want 400", path, rec.Code)
		}
	}
	long := strings.Repeat("k", 70000)
	if rec := serveRaw(srv, "/v1/add?key="+long, strings.NewReader(string(leBytes(seed))), 16); rec.Code != http.StatusBadRequest {
		t.Errorf("over-long key: got %d, want 400", rec.Code)
	}
	if after := sumBits(t, hs); after != before {
		t.Fatalf("rejected raw bodies disturbed the sum: %s -> %s", before, after)
	}
	if keys := getJSONKeys(t, hs); len(keys) != 0 {
		t.Fatalf("rejected keyed bodies registered keys %v", keys)
	}
}

func getJSONKeys(t *testing.T, hs *httptest.Server) []string {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + "/v1/keys")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var kr sumdsrv.KeysResponse
	if err := decodeJSON(resp.Body, &kr); err != nil {
		t.Fatal(err)
	}
	return kr.Keys
}

// TestRawBodyTruncatedOverTheWire sends a request whose body stops
// short of its Content-Length and then half-closes the connection: the
// server must answer 400 and leave the sum untouched.
func TestRawBodyTruncatedOverTheWire(t *testing.T) {
	_, hs := startService(t, sumdsrv.Options{})
	before := sumBits(t, hs)
	conn, err := net.Dial("tcp", hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := leBytes([]float64{1, 2})
	fmt.Fprintf(conn, "POST /v1/add HTTP/1.1\r\nHost: x\r\nContent-Type: application/octet-stream\r\nContent-Length: 24\r\n\r\n%s", body)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: got %d, want 400", resp.StatusCode)
	}
	if after := sumBits(t, hs); after != before {
		t.Fatalf("truncated body disturbed the sum: %s -> %s", before, after)
	}
}

// TestRawBodyFormatsBitIdentical drives one server through every body
// shape back to back — declared and chunked octet-stream bodies of
// shrinking and growing sizes (so pooled buffers are reused with stale
// values past the new body's end), keyed and unkeyed, adds and subs,
// and JSON — and demands the served sums equal parsum.Sum bit for bit.
func TestRawBodyFormatsBitIdentical(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 200000, Delta: 2000, Seed: 5}).Slice()
	c, hs := startService(t, sumdsrv.Options{WALDir: t.TempDir(), WALFsync: "off"})
	ctx := context.Background()
	var global, keyedK []float64
	sizes := []int{150000, 3, 4096, 1, 30000, 0, 12000}
	off := 0
	for i, n := range sizes {
		part := xs[off : off+n]
		off += n
		chunked := i%2 == 1
		var body io.Reader = strings.NewReader(string(leBytes(part)))
		if chunked {
			body = io.MultiReader(body) // hides the length: sent chunked
		}
		path := "/v1/add"
		if i%3 == 2 {
			path = "/v1/add?key=k"
			keyedK = append(keyedK, part...)
		} else {
			global = append(global, part...)
		}
		resp, err := hs.Client().Post(hs.URL+path, "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d (n=%d chunked=%v): %d", i, n, chunked, resp.StatusCode)
		}
	}
	// A sub of a prefix, and a JSON add, through the same server.
	if err := c.SubBatch(ctx, global[:10]); err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/v1/add", "application/json", strings.NewReader(`{"values":[0.1,0.2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON add: %d", resp.StatusCode)
	}
	want := parsum.Sum(append(append([]float64{}, global[10:]...), 0.1, 0.2))
	got, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("global sum %x, want %x", math.Float64bits(got), math.Float64bits(want))
	}
	gotK, ok, err := c.SumKey(ctx, "k")
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if wantK := parsum.Sum(keyedK); math.Float64bits(gotK) != math.Float64bits(wantK) {
		t.Errorf("keyed sum %x, want %x", math.Float64bits(gotK), math.Float64bits(wantK))
	}
}

// TestAbandonedAsyncBatchKeepsItsBuffer cancels a request while its
// batch waits for a parked flush, then floods the server with
// same-sized requests. The abandoned batch is still admitted and will
// be flushed from its body buffer, so that buffer must not go back to
// the pool: if it did, a flood request would read its body into it and
// the abandoned batch would be applied with the flood's values. Run
// with -race this also catches the unsynchronized reuse itself.
func TestAbandonedAsyncBatchKeepsItsBuffer(t *testing.T) {
	const n, flood = 512, 24
	gs := newGatedSink()
	srv, err := sumdsrv.New(sumdsrv.Options{Shards: 1, QueueLen: 64, WrapSink: gs.wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	vals := func(base float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base + float64(i)*0x1p-30
		}
		return xs
	}

	// A parks a flusher inside the sink; B queues behind it, or parks
	// another flusher, and is then abandoned by its caller.
	post := func(ctx context.Context, xs []float64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/add", strings.NewReader(string(leBytes(xs)))).WithContext(ctx)
		req.Header.Set("Content-Type", "application/octet-stream")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	all := vals(1)
	doneA := make(chan int, 1)
	go func() { doneA <- post(context.Background(), vals(1)).Code }()
	gs.awaitParked(t)
	ctxB, cancelB := context.WithCancel(context.Background())
	doneB := make(chan int, 1)
	go func() { doneB <- post(ctxB, vals(1e6)).Code }()
	all = append(all, vals(1e6)...)
	waitEnqueued(t, srv, 2)
	cancelB()
	if code := <-doneB; code != http.StatusServiceUnavailable {
		t.Fatalf("abandoned request: got %d, want 503", code)
	}

	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		xs := vals(-1e9 * float64(i+1))
		all = append(all, xs...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code := post(context.Background(), xs).Code; code != http.StatusOK {
				t.Errorf("flood request: %d", code)
			}
		}()
	}
	waitEnqueued(t, srv, 2+flood)
	close(gs.gate)
	wg.Wait()
	if code := <-doneA; code != http.StatusOK {
		t.Fatalf("parked request: %d", code)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	if got, want := sumBits(t, hs), fmt.Sprintf("%x", math.Float64bits(parsum.Sum(all))); got != want {
		t.Fatalf("sum bits %s, want %s: the abandoned batch was flushed from a recycled buffer", got, want)
	}
}

func decodeJSON(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

func waitEnqueued(t *testing.T, srv *sumdsrv.Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var st sumdsrv.StatsResponse
		if err := decodeJSON(rec.Body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Async.Enqueued >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests enqueued", st.Async.Enqueued, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRawAddAllocationsBounded is the handler's allocation guard: with
// pooled buffers warm, a 65 536-value octet-stream add allocates a
// handful of small objects, independent of the body size (reading the
// body through io.ReadAll and decoding it into a fresh slice took 38
// allocations and ~3 MB per request).
func TestRawAddAllocationsBounded(t *testing.T) {
	srv, err := sumdsrv.New(sumdsrv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body := leBytes(benchValues(65536))
	req, err := http.NewRequest(http.MethodPost, "/v1/add", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.ContentLength = int64(len(body))
	rb := &rewindBody{}
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		rb.Reset(body)
		req.Body = rb
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	serve()
	// The bound leaves room for the race detector's random pool drops.
	if n := testing.AllocsPerRun(50, serve); n > 12 {
		t.Fatalf("octet-stream add allocates %.1f times per request, want at most 12", n)
	}
}
