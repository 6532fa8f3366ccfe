package sumdclient

// Regression tests for the Flush double-apply hazard: a push whose
// response is lost after the service merged it used to be re-sent by the
// next Flush and applied twice. The combiners now stage each blob under
// an idempotency token, so the retry is recognized and no-opped. These
// tests drive real flushes through a proxy that applies the push and
// then drops the ack.

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"parsum"
	"parsum/internal/sumdsrv"
)

// flakyProxy forwards every request to the real service but can be armed
// to drop the next n acks to mutating pushes *after* the service has
// applied them — the lost-response failure that makes a naive retry
// double-apply.
type flakyProxy struct {
	srv  http.Handler
	mu   sync.Mutex
	drop int
}

func (p *flakyProxy) arm(n int) {
	p.mu.Lock()
	p.drop = n
	p.mu.Unlock()
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	p.srv.ServeHTTP(rec, r)
	p.mu.Lock()
	dropped := r.Method == http.MethodPost && rec.Code/100 == 2 && p.drop > 0
	if dropped {
		p.drop--
	}
	p.mu.Unlock()
	if dropped {
		// The push was applied; its ack vanishes on the wire.
		panic(http.ErrAbortHandler)
	}
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

func flakyService(t *testing.T) (*Client, *flakyProxy, *httptest.Server) {
	t.Helper()
	srv, err := sumdsrv.New(sumdsrv.Options{Shards: 2, KeyPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	proxy := &flakyProxy{srv: srv}
	hs := httptest.NewServer(proxy)
	t.Cleanup(hs.Close)
	return New(hs.URL, hs.Client()), proxy, hs
}

func dedupHits(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Deduped int64 `json:"deduped"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding stats %s: %v", data, err)
	}
	return st.Deduped
}

// TestCombinerFlushRetrySurvivesLostResponse: the ack to a merged push
// is dropped, the Flush errors, and the retried Flush — with more values
// accumulated in between — must leave the service holding every value
// exactly once. Ill-conditioned values make any double-apply visible in
// the final bits.
func TestCombinerFlushRetrySurvivesLostResponse(t *testing.T) {
	ctx := context.Background()
	c, proxy, hs := flakyService(t)

	first := []float64{1e16, 3.14, -1e16, 2.71, 1e-30}
	second := []float64{0.1, 0.2, -1e8, 1e8}
	oracle := parsum.Sum(append(append([]float64{}, first...), second...))

	co := c.NewCombiner()
	co.AddSlice(first)
	proxy.arm(1)
	if err := co.Flush(ctx); err == nil {
		t.Fatal("Flush with a dropped response did not error")
	}

	// The service DID merge the blob — the ack was lost after the apply.
	got, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := parsum.Sum(first); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("after lost ack: sum %x, want %x (push was not applied)",
			math.Float64bits(got), math.Float64bits(want))
	}

	// Keep accumulating, then retry: the staged blob is re-sent under its
	// original token (deduplicated) and the new blob merges once.
	co.AddSlice(second)
	if err := co.Flush(ctx); err != nil {
		t.Fatalf("retried Flush: %v", err)
	}
	got, err = c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(oracle) {
		t.Fatalf("after retry: sum %x, want oracle %x (values double-applied or lost)",
			math.Float64bits(got), math.Float64bits(oracle))
	}
	if hits := dedupHits(t, hs.URL); hits != 1 {
		t.Errorf("dedup hits = %d, want 1 (the retried blob)", hits)
	}

	// A further Flush with nothing staged and nothing accumulated is a
	// no-op and must not disturb the bits.
	if err := co.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got, err = c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(oracle) {
		t.Fatalf("idle Flush changed the bits: %x, want %x",
			math.Float64bits(got), math.Float64bits(oracle))
	}
}

// TestKeyedCombinerFlushRetrySurvivesLostResponse is the keyed twin: the
// ack to a merged keyed envelope is dropped, and the retried Flush must
// leave every key's bits exactly as if the envelope landed once.
func TestKeyedCombinerFlushRetrySurvivesLostResponse(t *testing.T) {
	ctx := context.Background()
	c, proxy, hs := flakyService(t)

	vals := map[string][]float64{
		"alpha": {1e16, 1.0, -1e16},
		"beta":  {0.1, 0.2, 0.3},
	}

	co := c.NewKeyedCombiner()
	for key, xs := range vals {
		co.Add(key, xs)
	}
	proxy.arm(1)
	if _, err := co.Flush(ctx); err == nil {
		t.Fatal("keyed Flush with a dropped response did not error")
	}

	// Retried Flush: the identical envelope is recognized and no-opped,
	// so it reports 0 keys merged.
	merged, err := co.Flush(ctx)
	if err != nil {
		t.Fatalf("retried keyed Flush: %v", err)
	}
	if merged != 0 {
		t.Errorf("retried envelope merged %d keys, want 0 (deduplicated)", merged)
	}
	for key, xs := range vals {
		got, ok, err := c.SumKey(ctx, key)
		if err != nil || !ok {
			t.Fatalf("SumKey(%q): ok=%t err=%v", key, ok, err)
		}
		if want := parsum.Sum(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("key %q: sum %x, want %x (envelope double-applied or lost)",
				key, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if hits := dedupHits(t, hs.URL); hits != 1 {
		t.Errorf("dedup hits = %d, want 1 (the retried envelope)", hits)
	}
}
