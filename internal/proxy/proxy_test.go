package proxy_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parsum"
	"parsum/internal/chaos"
	"parsum/internal/proxy"
	"parsum/internal/sumdclient"
	"parsum/internal/sumdsrv"
)

// fleet is a test cluster: n sumd backends, each reachable directly
// (for oracle checks) and through a per-backend chaos injector (the
// proxy's view of it).
type fleet struct {
	names     []string
	direct    map[string]*sumdclient.Client
	injectors map[string]*chaos.Injector
}

func startFleet(t *testing.T, n int, opt sumdsrv.Options) *fleet {
	t.Helper()
	f := &fleet{
		direct:    map[string]*sumdclient.Client{},
		injectors: map[string]*chaos.Injector{},
	}
	for i := 0; i < n; i++ {
		srv, err := sumdsrv.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		f.names = append(f.names, hs.URL)
		f.direct[hs.URL] = sumdclient.New(hs.URL, hs.Client())
		// A quiet injector: no faults until a test partitions or arms it.
		// It forwards over the proxy's production transport.
		f.injectors[hs.URL] = chaos.New(chaos.Options{Seed: uint64(i) + 1, Next: sumdclient.NewTransport(hs.URL)})
	}
	return f
}

// transport is the proxy Options.Transport seam routing each backend
// through its injector.
func (f *fleet) transport(backend string) http.RoundTripper { return f.injectors[backend] }

func newProxy(t *testing.T, f *fleet, mutate func(*proxy.Options)) (*proxy.Proxy, *httptest.Server) {
	t.Helper()
	opt := proxy.Options{
		Backends:    f.names,
		Timeout:     5 * time.Second,
		ReplayEvery: -1, // tests drive replay and repair explicitly
		Transport:   f.transport,
	}
	if mutate != nil {
		mutate(&opt)
	}
	p, err := proxy.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	hs := httptest.NewServer(p)
	t.Cleanup(hs.Close)
	return p, hs
}

// postAdd writes xs to key through the proxy and returns the response.
func postAdd(t *testing.T, base, key string, xs []float64, token string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(struct {
		Values []float64 `json:"values"`
	}{xs})
	req, err := http.NewRequest(http.MethodPost, base+"/v1/add?key="+key, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Idempotency-Key", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drain(t *testing.T, resp *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestWriteReplicatesToAllReplicas(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	_, hs := newProxy(t, f, nil)

	xs := []float64{1e16, 3.25, -1e16, 0.125}
	want := math.Float64bits(parsum.Sum(xs))

	resp := postAdd(t, hs.URL, "alpha", xs, "")
	body := drain(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"acked":true`) || !strings.Contains(body, `"ok":3`) {
		t.Fatalf("ack response: %s", body)
	}

	for _, name := range f.names {
		v, ok, err := f.direct[name].SumKey(context.Background(), "alpha")
		if err != nil || !ok {
			t.Fatalf("%s: SumKey ok=%t err=%v", name, ok, err)
		}
		if got := math.Float64bits(v); got != want {
			t.Errorf("%s: bits %016x, want %016x", name, got, want)
		}
	}

	// The proxy's read agrees bit for bit.
	rr, err := http.Get(hs.URL + "/v1/sum?key=alpha")
	if err != nil {
		t.Fatal(err)
	}
	rb := drain(t, rr)
	if !strings.Contains(rb, fmt.Sprintf(`"bits":"%016x"`, want)) {
		t.Fatalf("proxy read: %s", rb)
	}
}

func TestWriteValidation(t *testing.T) {
	f := startFleet(t, 1, sumdsrv.Options{})
	_, hs := newProxy(t, f, nil)

	resp, err := http.Post(hs.URL+"/v1/add", "application/json", strings.NewReader(`{"values":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	if drain(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing key: %d, want 400", resp.StatusCode)
	}

	long := strings.Repeat("k", 5000)
	resp = postAdd(t, hs.URL, long, []float64{1}, "")
	if drain(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized key: %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(hs.URL+"/v1/add?key=k", "application/json", strings.NewReader(`{"values":`))
	if err != nil {
		t.Fatal(err)
	}
	if drain(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(hs.URL+"/v1/add?key=k", "application/octet-stream", strings.NewReader("12345"))
	if err != nil {
		t.Fatal(err)
	}
	if drain(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ragged octet body: %d, want 400", resp.StatusCode)
	}
}

// TestWriteRawBodies pins the proxy's body edge: octet-stream bodies,
// declared or chunked, decode bit-exactly, and any body over the cap —
// declared, chunked or JSON — is a 413 that reaches no replica.
func TestWriteRawBodies(t *testing.T) {
	f := startFleet(t, 1, sumdsrv.Options{})
	_, hs := newProxy(t, f, func(o *proxy.Options) { o.MaxBodyBytes = 80 })
	le := func(xs []float64) string {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return string(b)
	}
	xs := []float64{1e300, math.Copysign(0, -1), -1e300, 0x1p-1074}
	for _, body := range []io.Reader{strings.NewReader(le(xs)), io.MultiReader(strings.NewReader(le(xs)))} {
		resp, err := http.Post(hs.URL+"/v1/add?key=k", "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		if b := drain(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("raw add: %d %s", resp.StatusCode, b)
		}
	}
	over := le(make([]float64, 11))
	for name, req := range map[string]struct {
		ct   string
		body io.Reader
	}{
		"declared": {"application/octet-stream", strings.NewReader(over)},
		"chunked":  {"application/octet-stream", io.MultiReader(strings.NewReader(over))},
		"json":     {"application/json", strings.NewReader(`{"values":[` + strings.Repeat("1,", 40) + `1]}`)},
	} {
		resp, err := http.Post(hs.URL+"/v1/add?key=k", req.ct, req.body)
		if err != nil {
			t.Fatal(err)
		}
		if drain(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s body over the cap: %d, want 413", name, resp.StatusCode)
		}
	}
	v, ok, err := f.direct[f.names[0]].SumKey(context.Background(), "k")
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if want := parsum.Sum(append(append([]float64{}, xs...), xs...)); math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("replica bits %016x, want %016x", math.Float64bits(v), math.Float64bits(want))
	}
}

// TestWriteJSONWithMediaTypeParameters: a JSON body whose Content-Type
// carries parameters is still JSON. Compared as a whole header, the
// 24-byte body below was taken as three raw float64s and acked.
func TestWriteJSONWithMediaTypeParameters(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	_, hs := newProxy(t, f, nil)
	for _, ct := range []string{"application/json; charset=utf-8", "Application/JSON ; charset=UTF-8"} {
		body := `{"values":[1.5,2.5]}    `
		resp, err := http.Post(hs.URL+"/v1/add?key=j", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if b := drain(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: %d %s", ct, resp.StatusCode, b)
		}
	}
	for _, name := range f.names {
		v, ok, err := f.direct[name].SumKey(context.Background(), "j")
		if err != nil || !ok {
			t.Fatalf("%s: ok=%t err=%v", name, ok, err)
		}
		if v != 8 {
			t.Errorf("%s: sum %v, want 8", name, v)
		}
	}
}

func TestReadFailover(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	p, hs := newProxy(t, f, nil)

	resp := postAdd(t, hs.URL, "k", []float64{2.5}, "")
	if drain(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("add: %d", resp.StatusCode)
	}

	replicas := p.Ring().Replicas("k", p.Replication())
	f.injectors[replicas[0]].Partition()

	rr, err := http.Get(hs.URL + "/v1/sum?key=k")
	if err != nil {
		t.Fatal(err)
	}
	body := drain(t, rr)
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("failover read: %d %s", rr.StatusCode, body)
	}
	if strings.Contains(body, fmt.Sprintf("%q", replicas[0])) {
		t.Fatalf("read served by the partitioned primary: %s", body)
	}

	// Unknown key on a live fleet is a 404, not a 503.
	rr, err = http.Get(hs.URL + "/v1/sum?key=nope")
	if err != nil {
		t.Fatal(err)
	}
	if drain(t, rr); rr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: %d, want 404", rr.StatusCode)
	}

	// All replicas dark: 503.
	for _, name := range replicas {
		f.injectors[name].Partition()
	}
	rr, err = http.Get(hs.URL + "/v1/sum?key=k")
	if err != nil {
		t.Fatal(err)
	}
	if drain(t, rr); rr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("dark fleet read: %d, want 503", rr.StatusCode)
	}
}

func TestAckModes(t *testing.T) {
	for _, tc := range []struct {
		mode       string
		partitions int
		wantAck    bool
	}{
		{proxy.AckQuorum, 1, true},
		{proxy.AckQuorum, 2, false},
		{proxy.AckAll, 1, false},
		{proxy.AckOne, 2, true},
	} {
		t.Run(fmt.Sprintf("%s_%ddown", tc.mode, tc.partitions), func(t *testing.T) {
			f := startFleet(t, 3, sumdsrv.Options{})
			_, hs := newProxy(t, f, func(o *proxy.Options) { o.AckMode = tc.mode })
			for i := 0; i < tc.partitions; i++ {
				f.injectors[f.names[i]].Partition()
			}
			resp := postAdd(t, hs.URL, "k", []float64{1}, "")
			body := drain(t, resp)
			if tc.wantAck && resp.StatusCode != http.StatusOK {
				t.Fatalf("want ack, got %d %s", resp.StatusCode, body)
			}
			if !tc.wantAck && resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("want 503, got %d %s", resp.StatusCode, body)
			}
		})
	}
}

func TestHintedHandoffReplaysAfterHeal(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	// Background replay on a tight loop; repair stays manual.
	p, hs := newProxy(t, f, func(o *proxy.Options) { o.ReplayEvery = 5 * time.Millisecond })

	down := f.names[2]
	f.injectors[down].Partition()

	xs := []float64{0.1, 0.2, 0.7}
	want := math.Float64bits(parsum.Sum(xs))
	resp := postAdd(t, hs.URL, "h", xs, "")
	body := drain(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"hinted":1`) {
		t.Fatalf("add: %d %s (want acked with one hint)", resp.StatusCode, body)
	}
	if _, ok, _ := f.direct[down].SumKey(context.Background(), "h"); ok {
		t.Fatal("partitioned backend saw the write")
	}

	f.injectors[down].Heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok, err := f.direct[down].SumKey(context.Background(), "h")
		if err == nil && ok {
			if got := math.Float64bits(v); got != want {
				t.Fatalf("replayed bits %016x, want %016x", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hint never replayed after heal")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = p
}

func TestRepairRestoresWipedReplica(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	p, hs := newProxy(t, f, nil)

	keys := []string{"a", "b", "c", "d", "e"}
	oracle := map[string]uint64{}
	for i, k := range keys {
		xs := []float64{float64(i) + 0.5, 1e-30, -0.25}
		oracle[k] = math.Float64bits(parsum.Sum(xs))
		resp := postAdd(t, hs.URL, k, xs, "")
		if drain(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("add %s: %d", k, resp.StatusCode)
		}
	}

	// Wipe one backend outright — kill -9 plus lost disk, in effect.
	wiped := f.names[1]
	if err := f.direct[wiped].Reset(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ks, _ := f.direct[wiped].Keys(context.Background(), "", ""); len(ks) != 0 {
		t.Fatalf("reset left keys: %v", ks)
	}

	stats := p.RepairNow(context.Background())
	if stats.Errors > 0 || len(stats.Unreachable) > 0 {
		t.Fatalf("repair stats: %+v", stats)
	}
	if stats.Diffs == 0 {
		t.Fatalf("repair pushed no diffs: %+v", stats)
	}

	for _, name := range f.names {
		for _, k := range keys {
			v, ok, err := f.direct[name].SumKey(context.Background(), k)
			if err != nil || !ok {
				t.Fatalf("%s %s: ok=%t err=%v", name, k, ok, err)
			}
			if got := math.Float64bits(v); got != oracle[k] {
				t.Errorf("%s %s: bits %016x, want %016x", name, k, got, oracle[k])
			}
		}
	}

	// A second round finds nothing to fix.
	stats = p.RepairNow(context.Background())
	if stats.Diffs != 0 || stats.Skipped != 0 {
		t.Fatalf("second round not a no-op: %+v", stats)
	}
}

// tokenRefuser refuses every request carrying an Idempotency-Key — write
// legs and hint replays — while refuse is set, and forwards the rest
// (state pulls, repair diffs) to next. It fails the request outright,
// or answers it with status when that is set.
type tokenRefuser struct {
	refuse atomic.Bool
	status int
	next   http.RoundTripper
}

func (tr *tokenRefuser) RoundTrip(r *http.Request) (*http.Response, error) {
	if tr.refuse.Load() && r.Header.Get("Idempotency-Key") != "" {
		if r.Body != nil {
			r.Body.Close()
		}
		if tr.status == 0 {
			return nil, errors.New("tokened request refused")
		}
		return &http.Response{
			StatusCode: tr.status,
			Header:     http.Header{"Content-Type": {"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"error":"tokened request refused"}`)),
			Request:    r,
		}, nil
	}
	return tr.next.RoundTrip(r)
}

// A backend whose queued hints cannot be delivered sits a repair round
// out: a diff would carry the hinted writes, and the hints' later
// replay would apply them a second time.
func TestRepairSkipsBackendWithPendingHints(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	down := f.names[2]
	tr := &tokenRefuser{next: f.injectors[down]}
	tr.refuse.Store(true)
	p, hs := newProxy(t, f, func(o *proxy.Options) {
		o.Transport = func(b string) http.RoundTripper {
			if b == down {
				return tr
			}
			return f.injectors[b]
		}
		o.ReplayEvery = 5 * time.Millisecond
		o.BreakerThreshold = 1 << 20 // keep the pulls of down flowing
	})

	xs := []float64{0.1, 0.2, 0.7}
	want := math.Float64bits(parsum.Sum(xs))
	resp := postAdd(t, hs.URL, "h", xs, "")
	if body := drain(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"hinted":1`) {
		t.Fatalf("add: %d %s (want acked with one hint)", resp.StatusCode, body)
	}

	stats := p.RepairNow(context.Background())
	if len(stats.Unreachable) != 1 || stats.Unreachable[0] != down || stats.Diffs != 0 {
		t.Fatalf("repair with a hint pending on %s: %+v (want it unreachable, no diffs)", down, stats)
	}

	tr.refuse.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok, err := f.direct[down].SumKey(context.Background(), "h"); err == nil && ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hint never replayed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, name := range f.names {
		v, ok, err := f.direct[name].SumKey(context.Background(), "h")
		if err != nil || !ok {
			t.Fatalf("%s: ok=%t err=%v", name, ok, err)
		}
		if got := math.Float64bits(v); got != want {
			t.Errorf("%s: bits %016x, want %016x", name, got, want)
		}
	}
}

// A hint its backend refuses for good — a 413 from a backend with a
// lower body cap — is dropped and counted instead of retried forever,
// so repair reaches that backend and reconverges the key.
func TestRepairDropsHintRefusedForGood(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	down := f.names[2]
	tr := &tokenRefuser{status: http.StatusRequestEntityTooLarge, next: f.injectors[down]}
	tr.refuse.Store(true)
	p, hs := newProxy(t, f, func(o *proxy.Options) {
		o.Transport = func(b string) http.RoundTripper {
			if b == down {
				return tr
			}
			return f.injectors[b]
		}
	})

	xs := []float64{0.1, 0.2, 0.7}
	want := math.Float64bits(parsum.Sum(xs))
	resp := postAdd(t, hs.URL, "h", xs, "")
	if body := drain(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"hinted":1`) {
		t.Fatalf("add: %d %s (want acked with one hint)", resp.StatusCode, body)
	}

	stats := p.RepairNow(context.Background())
	if len(stats.Unreachable) != 0 || stats.Diffs != 1 || stats.HintsFlushed != 0 {
		t.Fatalf("repair with a refused hint on %s: %+v (want it reached, one diff, no hint delivered)", down, stats)
	}
	for _, name := range f.names {
		v, ok, err := f.direct[name].SumKey(context.Background(), "h")
		if err != nil || !ok {
			t.Fatalf("%s: ok=%t err=%v", name, ok, err)
		}
		if got := math.Float64bits(v); got != want {
			t.Errorf("%s: bits %016x, want %016x", name, got, want)
		}
	}
	rr, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := drain(t, rr)
	for _, line := range []string{"sumproxy_hints_dropped_total 1", "sumproxy_hints_pending 0", "sumproxy_hints_replayed_total 0"} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics missing %q", line)
		}
	}
}

func TestTopologyEndpoint(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	_, hs := newProxy(t, f, nil)

	rr, err := http.Get(hs.URL + "/v1/topology?key=zeta")
	if err != nil {
		t.Fatal(err)
	}
	var topo struct {
		Nodes       []string          `json:"nodes"`
		Replication int               `json:"replication"`
		AckMode     string            `json:"ack_mode"`
		NeedAcks    int               `json:"need_acks"`
		Breakers    map[string]string `json:"breakers"`
		Replicas    []string          `json:"replicas"`
	}
	if err := json.Unmarshal([]byte(drain(t, rr)), &topo); err != nil {
		t.Fatal(err)
	}
	if len(topo.Nodes) != 3 || topo.Replication != 3 || topo.AckMode != "quorum" || topo.NeedAcks != 2 {
		t.Fatalf("topology: %+v", topo)
	}
	if len(topo.Replicas) != 3 {
		t.Fatalf("key replicas: %v", topo.Replicas)
	}
	for name, st := range topo.Breakers {
		if st != "closed" {
			t.Errorf("breaker %s = %s, want closed", name, st)
		}
	}
}

func TestMetricsAndHealth(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	_, hs := newProxy(t, f, nil)

	resp := postAdd(t, hs.URL, "m", []float64{1, 2}, "")
	drain(t, resp)
	rr, err := http.Get(hs.URL + "/v1/sum?key=m")
	if err != nil {
		t.Fatal(err)
	}
	drain(t, rr)

	rr, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := drain(t, rr)
	for _, want := range []string{
		"sumproxy_up 1",
		"sumproxy_backends 3",
		"sumproxy_writes_total 1",
		"sumproxy_writes_acked_total 1",
		`sumproxy_write_legs_total{outcome="ok"} 3`,
		"sumproxy_reads_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	rr, err = http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body = drain(t, rr); rr.StatusCode != http.StatusOK || !strings.Contains(body, `"live":3`) {
		t.Errorf("healthz: %d %s", rr.StatusCode, body)
	}
	rr, err = http.Get(hs.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if drain(t, rr); rr.StatusCode != http.StatusOK {
		t.Errorf("readyz: %d", rr.StatusCode)
	}
}

func TestReadyzDegradesWhenFleetDies(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	_, hs := newProxy(t, f, func(o *proxy.Options) {
		o.BreakerThreshold = 1
		o.BreakerCooldown = time.Minute
	})
	for _, name := range f.names {
		f.injectors[name].Partition()
	}
	// One failed write opens every breaker (threshold 1).
	resp := postAdd(t, hs.URL, "k", []float64{1}, "")
	if drain(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dark write: %d, want 503", resp.StatusCode)
	}
	rr, err := http.Get(hs.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if body := drain(t, rr); rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet: %d %s", rr.StatusCode, body)
	}
	rr, err = http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := drain(t, rr); !strings.Contains(body, `"live":0`) {
		t.Fatalf("healthz live count: %s", body)
	}
}

func TestIdempotentProxyRetry(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	_, hs := newProxy(t, f, nil)

	xs := []float64{4.25}
	want := math.Float64bits(parsum.Sum(xs))
	token := sumdclient.NewIdemToken()
	// The same logical write delivered three times end to end — one
	// application on every replica.
	for i := 0; i < 3; i++ {
		resp := postAdd(t, hs.URL, "idem", xs, token)
		if drain(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("attempt %d: %d", i, resp.StatusCode)
		}
	}
	for _, name := range f.names {
		v, ok, err := f.direct[name].SumKey(context.Background(), "idem")
		if err != nil || !ok {
			t.Fatalf("%s: ok=%t err=%v", name, ok, err)
		}
		if got := math.Float64bits(v); got != want {
			t.Errorf("%s: bits %016x, want %016x (write applied more than once?)", name, got, want)
		}
	}
}

func TestProxyNewValidation(t *testing.T) {
	if _, err := proxy.New(proxy.Options{}); err == nil {
		t.Error("no backends accepted")
	}
	if _, err := proxy.New(proxy.Options{Backends: []string{"http://x"}, AckMode: "most"}); err == nil {
		t.Error("unknown ack mode accepted")
	}
	// sumd serves plain HTTP only.
	for _, b := range []string{"https://x", "127.0.0.1:8372", "x", "ftp://x", "http://", "http://%zz"} {
		if _, err := proxy.New(proxy.Options{Backends: []string{"http://y", b}}); err == nil {
			t.Errorf("backend %q accepted", b)
		}
	}
}

// TestCloseDropsIdleBackendConnections: the default transport keeps
// backend connections alive between writes, and Close closes them.
func TestCloseDropsIdleBackendConnections(t *testing.T) {
	srv, err := sumdsrv.New(sumdsrv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var opened, closed atomic.Int64
	hs := httptest.NewUnstartedServer(srv)
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			opened.Add(1)
		case http.StateClosed:
			closed.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()
	p, err := proxy.New(proxy.Options{Backends: []string{hs.URL}, ReplayEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	defer front.Close()
	for i := 0; i < 5; i++ {
		if resp := postAdd(t, front.URL, "k", []float64{1}, ""); drain(t, resp) == "" || resp.StatusCode != http.StatusOK {
			t.Fatalf("write %d: %d", i, resp.StatusCode)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("5 sequential writes opened %d backend connections, want 1", n)
	}
	if n := closed.Load(); n != 0 {
		t.Errorf("%d backend connections closed before Close, want 0", n)
	}
	p.Close()
	deadline := time.Now().Add(5 * time.Second)
	for closed.Load() < opened.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d backend connections closed after Close", closed.Load(), opened.Load())
		}
		time.Sleep(time.Millisecond)
	}
}
