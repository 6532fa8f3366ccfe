package main

// Span names the benchmark records: the client's own span around each
// sumdclient call, and the server spans routeName gives.
const (
	spanClientWrite = "client write"
	spanClientRead  = "client read"
	spanCall        = "core.SumParallel"
	spanLeg         = "proxy.leg"
)

// serverSpanMetrics maps a server span name to the per-layer metrics of
// its duration percentiles.
var serverSpanMetrics = []struct {
	span string
	p    float64
	name string
}{
	{"sumd POST /v1/add", 50, "sumdsrv.add_serve_p50_us"},
	{"sumd POST /v1/add", 99, "sumdsrv.add_serve_p99_us"},
	{"sumd GET /v1/sum", 50, "sumdsrv.sum_serve_p50_us"},
	{"sumd POST /v1/keyed/partial", 50, "sumdsrv.keyed_push_serve_p50_us"},
	{"sumd GET /v1/sum?key", 50, "sumdsrv.keyed_sum_serve_p50_us"},
	{"proxy POST /v1/add", 50, "proxy.write_serve_p50_us"},
	{"proxy POST /v1/add", 99, "proxy.write_serve_p99_us"},
	{"proxy GET /v1/sum?key", 50, "proxy.read_serve_p50_us"},
}

// spanLayers derives the span-based per-layer metrics, in µs. A metric
// whose spans did not occur is left out.
func spanLayers(spans []span) map[string]float64 {
	byName := map[string][]int64{}
	children := map[uint64][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.dur())
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, m := range serverSpanMetrics {
		if ds := byName[m.span]; len(ds) > 0 {
			out[m.name] = pctUs(ds, m.p)
		}
	}
	var clientSelf, proxySelf, legs, slowest []int64
	for _, s := range spans {
		switch s.Name {
		case spanClientWrite:
			// Encoding, net/http and loopback: the client span minus the
			// server's.
			clientSelf = append(clientSelf, selfTime(s.interval(), intervals(children[s.ID])))
		case "proxy POST /v1/add":
			ls := children[s.ID]
			proxySelf = append(proxySelf, selfTime(s.interval(), intervals(ls)))
			var worst int64
			for _, l := range ls {
				legs = append(legs, l.dur())
				worst = max(worst, l.dur())
			}
			if len(ls) > 0 {
				slowest = append(slowest, worst)
			}
		}
	}
	for name, ds := range map[string][]int64{
		"sumdclient.write_self_p50_us": clientSelf,
		"proxy.write_self_p50_us":      proxySelf,
		"proxy.leg_p50_us":             legs,
		"proxy.slowest_leg_p50_us":     slowest,
	} {
		if len(ds) > 0 {
			out[name] = pctUs(ds, 50)
		}
	}
	return out
}

func intervals(ss []span) []interval {
	iv := make([]interval, len(ss))
	for i, s := range ss {
		iv[i] = s.interval()
	}
	return iv
}
