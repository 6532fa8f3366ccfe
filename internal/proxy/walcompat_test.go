package proxy_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"parsum/internal/proxy"
	"parsum/internal/sumdclient"
	"parsum/internal/sumdsrv"
)

// The WAL compatibility fixture: testdata/walcompat holds the journal
// one backend wrote for compatWrites when an earlier build of the proxy
// built the envelopes (through a throwaway keyed.Store), plus the
// per-key sum bits the fleet served after the writes. Envelope bytes
// are journaled verbatim, so the fixture pins both how today's sumd
// recovers an old journal and that today's proxy builds the same bytes.
var writeWALCompat = flag.String("walcompat.write", "", "write the WAL compatibility fixture for compatWrites into this directory")

const walCompatDir = "testdata/walcompat"

// compatWrite is one write of the fixture.
type compatWrite struct {
	key  string
	xs   []float64
	sub  bool
	json bool
}

// compatWrites is a fixed mix of keyed adds and subs — empty
// batches, signed zeros, subnormals, huge magnitudes, NaN and ±Inf
// included — half of the finite ones sent as JSON.
func compatWrites() []compatWrite {
	r := rand.New(rand.NewPCG(14, 2016))
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 0x1p-1022,
	}
	keys := []string{"a", "key-1", "key 2/ü", "k3", "a-much-longer-key-for-the-fixture", "z"}
	ws := make([]compatWrite, 64)
	for i := range ws {
		xs := make([]float64, r.IntN(9))
		finite := true
		for j := range xs {
			if r.IntN(14) == 0 {
				xs[j] = specials[r.IntN(len(specials))]
			} else {
				xs[j] = (r.Float64() - 0.5) * math.Ldexp(1, r.IntN(160)-80)
			}
			if math.IsNaN(xs[j]) || math.IsInf(xs[j], 0) {
				finite = false
			}
		}
		ws[i] = compatWrite{key: keys[r.IntN(len(keys))], xs: xs, sub: r.IntN(3) == 0, json: finite && r.IntN(2) == 0}
	}
	return ws
}

// runCompatWrites sends compatWrites one at a time through a proxy with
// default options over three sumd backends journaling to walDirs, each
// under the token compat-<i>, and returns the per-key sum bits the
// proxy then serves.
func runCompatWrites(t *testing.T, walDirs []string) map[string]string {
	t.Helper()
	var urls []string
	var srvs []*sumdsrv.Server
	for _, dir := range walDirs {
		srv, err := sumdsrv.New(sumdsrv.Options{WALDir: dir, WALFsync: "off"})
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
		hs := httptest.NewServer(srv)
		defer hs.Close()
		urls = append(urls, hs.URL)
	}
	p, err := proxy.New(proxy.Options{Backends: urls, ReplayEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	path := map[bool]string{false: "/v1/add", true: "/v1/sub"}
	sums := map[string]string{}
	for i, w := range compatWrites() {
		var body []byte
		ct := "application/octet-stream"
		if w.json {
			body, _ = json.Marshal(struct {
				Values []float64 `json:"values"`
			}{w.xs})
			ct = "application/json"
		} else {
			for _, x := range w.xs {
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(x))
			}
		}
		req, err := http.NewRequest(http.MethodPost, front.URL+path[w.sub]+"?key="+url.QueryEscape(w.key), bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ct)
		req.Header.Set("Idempotency-Key", fmt.Sprintf("compat-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if msg := drain(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("write %d: %d %s", i, resp.StatusCode, msg)
		}
		sums[w.key] = ""
	}
	c := sumdclient.New(front.URL, nil)
	for key := range sums {
		v, _, err := c.SumKey(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		sums[key] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	for _, srv := range srvs {
		srv.Close()
	}
	return sums
}

// segments returns the journal files of dir by name.
func segments(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	out := map[string][]byte{}
	for _, n := range names {
		data, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(n)] = data
	}
	return out
}

func TestWALWrittenByEarlierProxyRecoversIdentically(t *testing.T) {
	if *writeWALCompat != "" {
		sums := runCompatWrites(t, []string{*writeWALCompat, t.TempDir(), t.TempDir()})
		data, _ := json.MarshalIndent(sums, "", "  ")
		if err := os.WriteFile(filepath.Join(*writeWALCompat, "sums.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want map[string]string
	data, err := os.ReadFile(filepath.Join(walCompatDir, "sums.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	fixture := segments(t, walCompatDir)

	// The old journal recovers to the bits the old fleet served.
	dir := t.TempDir()
	for name, seg := range fixture {
		if err := os.WriteFile(filepath.Join(dir, name), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := sumdsrv.New(sumdsrv.Options{WALDir: dir, WALFsync: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := sumdclient.New(hs.URL, nil)
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		v, ok, err := c.SumKey(context.Background(), key)
		if err != nil || !ok {
			t.Fatalf("%q: ok=%t err=%v", key, ok, err)
		}
		if got := fmt.Sprintf("%016x", math.Float64bits(v)); got != want[key] {
			t.Errorf("%q recovered to bits %s, want %s", key, got, want[key])
		}
	}

	// Today's proxy journals the same writes byte for byte.
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	sums := runCompatWrites(t, dirs)
	for key, bits := range want {
		if sums[key] != bits {
			t.Errorf("%q: today's fleet serves bits %s, want %s", key, sums[key], bits)
		}
	}
	for _, d := range dirs {
		got := segments(t, d)
		for name, seg := range fixture {
			if !bytes.Equal(got[name], seg) {
				t.Errorf("%s/%s differs from the fixture (%d vs %d bytes)", d, name, len(got[name]), len(seg))
			}
		}
		if len(got) != len(fixture) {
			t.Errorf("%s holds %d segments, fixture %d", d, len(got), len(fixture))
		}
	}
}
