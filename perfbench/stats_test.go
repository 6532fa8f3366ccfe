package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"parsum"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {20, 1}, {21, 2}, {99, 5}, {100, 5}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("p50 of nothing = %g, want NaN", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {110, 90}, {40, 75}, {20, 50}, {19, 0}} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, p, c.want)
		}
		if p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d p%g leaves %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestFailedOpsMissEveryBound(t *testing.T) {
	var ops []op
	for i := 0; i < 98; i++ {
		ops = append(ops, op{end: int64(i + 1), lat: 1e6, kind: opWrite, ok: true})
	}
	ops = append(ops, op{end: 99, lat: 1e6, kind: opWrite}, op{end: 100, lat: 1e6, kind: opWrite})
	ops = append(ops, op{end: 101, lat: 5e6, kind: opRead, ok: true})
	lat := latencies(ops, opWrite)
	if len(lat) != 100 {
		t.Fatalf("%d write samples, want 100: failed ops are samples too", len(lat))
	}
	if got := percentile(lat, 98); got != 1 {
		t.Errorf("p98 = %g ms, want 1", got)
	}
	if got := percentile(lat, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %g, want +Inf: a failed op misses any bound", got)
	}
	if got := finite(inf, ops); got != 101e-6 {
		t.Errorf("finite(+Inf) = %g ms, want the load's length 101e-6 ms", got)
	}
}

func TestGroupRatesTileTheRun(t *testing.T) {
	// Back-to-back calls of 1e6 values taking 10 ms each: 100 Mvals/s
	// in every group, however the calls fall into groups.
	var ops []op
	for i := 1; i <= 23; i++ {
		ops = append(ops, op{end: int64(i) * 10e6, lat: 10e6, values: 1e6, kind: opCall, ok: true})
	}
	rates := groupRates(ops, 0, 10)
	if len(rates) != 10 {
		t.Fatalf("%d groups, want 10", len(rates))
	}
	for i, r := range rates {
		if math.Abs(r-100) > 1e-9 {
			t.Errorf("group %d: %g Mvals/s, want 100", i, r)
		}
	}
	ops[5].ok = false // a failed op acknowledges nothing
	if got := groupRates(ops, 0, 1)[0]; math.Abs(got-100*22.0/23) > 1e-9 {
		t.Errorf("rate with one failure = %g, want %g", got, 100*22.0/23)
	}
}

func TestSelfTimeUsesTheUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	legs := []interval{{10, 50}, {20, 60}, {30, 55}, {70, 80}}
	// Union is [10,60) ∪ [70,80) = 60; the sum of the legs would be 105.
	if got := selfTime(parent, legs); got != 40 {
		t.Errorf("self = %d, want 40", got)
	}
	// Children are clipped to the parent.
	if got := selfTime(parent, []interval{{-10, 10}, {95, 120}}); got != 85 {
		t.Errorf("self with clipped children = %d, want 85", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self without children = %d, want 100", got)
	}
}

func TestSpanLayers(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: spanClientWrite, Start: 0, End: 1000e3},
		{Trace: 1, ID: 2, Parent: 1, Name: "proxy POST /v1/add", Start: 100e3, End: 900e3},
		{Trace: 1, ID: 3, Parent: 2, Name: spanLeg, Start: 200e3, End: 500e3},
		{Trace: 1, ID: 4, Parent: 2, Name: spanLeg, Start: 210e3, End: 700e3},
		{Trace: 1, ID: 5, Parent: 2, Name: spanLeg, Start: 220e3, End: 400e3},
		{Trace: 1, ID: 6, Parent: 3, Name: "sumd POST /v1/keyed/partial", Start: 250e3, End: 300e3},
	}
	got := spanLayers(spans)
	want := map[string]float64{
		"sumdclient.write_self_p50_us":    200, // 1000 − 800
		"proxy.write_serve_p50_us":        800,
		"proxy.write_serve_p99_us":        800,
		"proxy.write_self_p50_us":         300, // 800 − union [200,700)
		"proxy.leg_p50_us":                300, // of 180, 300, 490
		"proxy.slowest_leg_p50_us":        490,
		"sumdsrv.keyed_push_serve_p50_us": 50,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if _, ok := got["sumdsrv.add_serve_p50_us"]; ok {
		t.Error("a metric whose spans did not occur is reported")
	}
}

func TestTraceOverheadFrac(t *testing.T) {
	if got := overheadFrac(45, 50); got != 0.9 {
		t.Errorf("overheadFrac(45, 50) = %g, want 0.9", got)
	}
	if got := overheadFrac(45, 0); !math.IsNaN(got) {
		t.Errorf("overheadFrac with no untraced throughput = %g, want NaN", got)
	}
}

func TestZipfKeysDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64) [][]uint64 {
		zs, _ := keyDraws(seed)
		out := make([][]uint64, len(zs))
		for c, z := range zs {
			for i := 0; i < 1000; i++ {
				out[c] = append(out[c], z.Uint64())
			}
		}
		return out
	}
	a, b, other := draw(7), draw(7), draw(8)
	same := func(x, y [][]uint64) bool {
		for c := range x {
			for i := range x[c] {
				if x[c][i] != y[c][i] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("one seed drew two key sequences")
	}
	if same(a, other) {
		t.Error("two seeds drew one key sequence")
	}
	if same([][]uint64{a[0]}, [][]uint64{a[1]}) {
		t.Error("both clients drew the same keys")
	}
	counts := make([]int, numKeys)
	for _, k := range a[0] {
		if k >= numKeys {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] < counts[1] || counts[1] < counts[100] {
		t.Errorf("draws are not Zipf-skewed: %d, %d, %d", counts[0], counts[1], counts[100])
	}
}

func TestPoolSumMatchesParsumSum(t *testing.T) {
	p, err := newPool(4, 16, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int64{0: 2, 3: 1, 2: 5}
	var all []float64
	for i, n := range counts {
		for ; n > 0; n-- {
			all = append(all, p.batches[i]...)
		}
	}
	if got, want := p.sum(counts), parsum.Sum(all); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("pool sum %x, parsum.Sum %x", math.Float64bits(got), math.Float64bits(want))
	}
}

func TestCountersByFamilyName(t *testing.T) {
	before := parseProm([]byte("# HELP x\nsumd_wal_fsyncs_total 10\nlegs_total{outcome=\"ok\"} 3\nlegs_total{outcome=\"error\"} 1\n"))
	after := parseProm([]byte("sumd_wal_fsyncs_total 25\nlegs_total{outcome=\"ok\"} 9\nlegs_total{outcome=\"error\"} 1\n"))
	if d, ok := counterDelta([]promText{before}, []promText{after}, "sumd_wal_fsyncs_total"); !ok || d != 15 {
		t.Errorf("fsync delta = %g, %v; want 15, true", d, ok)
	}
	if d, ok := counterDelta([]promText{before}, []promText{after}, "legs_total"); !ok || d != 6 {
		t.Errorf("labelled family delta = %g, %v; want 6, true", d, ok)
	}
	if _, ok := counterDelta([]promText{before}, []promText{after}, "sumd_wal_renamed_total"); ok {
		t.Error("a missing family reads as present")
	}
	if _, ok := before.family("legs"); ok {
		t.Error("a family matched by name prefix")
	}
}

func TestTraceHeaderLinksSpans(t *testing.T) {
	tr := newTracer()
	backend := httptest.NewServer(traceHandler(tr, "sumd", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})))
	defer backend.Close()
	leg := &http.Client{Transport: legTransport{t: tr, base: http.DefaultTransport}}
	front := httptest.NewServer(traceHandler(tr, "proxy", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// As the proxy does: the backend call carries the request context.
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodPost, backend.URL+"/v1/keyed/partial", nil)
		resp, err := leg.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})))
	defer front.Close()
	ctx, root := tr.root(context.Background(), spanClientWrite)
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/v1/add?key=k", nil)
	resp, err := httpClient(tr).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tr.end(root)
	byName := map[string]span{}
	for _, s := range tr.all() {
		byName[s.Name] = s
		if s.Trace != root.Trace {
			t.Errorf("%s is in trace %d, want %d", s.Name, s.Trace, root.Trace)
		}
	}
	for child, parent := range map[string]string{
		"proxy POST /v1/add":          spanClientWrite,
		spanLeg:                       "proxy POST /v1/add",
		"sumd POST /v1/keyed/partial": spanLeg,
	} {
		if byName[child].Parent != byName[parent].ID {
			t.Errorf("%s has parent %d, want %s (%d)", child, byName[child].Parent, parent, byName[parent].ID)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != (def{want[i].name, want[i].unit, want[i].better}) {
				t.Errorf("%s[%d]: BENCHMARK.json %v, perfbench %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, b.Workloads[i].Name, w.name)
		}
	}
}
