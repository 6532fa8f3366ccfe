// Command perfbench is parsum's end-to-end benchmark. It runs one named
// workload in this process, with any servers it needs on loopback
// listeners, checks every result bit for bit against the exact sum, and
// prints a summary line and then one result line of JSON. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef declares a metric; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run; every workload reports
// each of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_mvals_s", "Mvals/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. A metric a workload does not
// measure (its layer is not on the workload's path) reports 0; a counter
// whose /metrics family is missing is left out.
var perLayer = []metricDef{
	{"accum.addslice_mvals_s", "Mvals/s", "higher"},
	{"accum.round_us", "us", "lower"},
	{"accum.merge_us", "us", "lower"},
	{"core.sum_seq_mvals_s", "Mvals/s", "higher"},
	{"core.parallel_speedup", "ratio", "higher"},
	{"sumdclient.write_self_p50_us", "us", "lower"},
	{"sumdsrv.add_serve_p50_us", "us", "lower"},
	{"sumdsrv.add_serve_p99_us", "us", "lower"},
	{"sumdsrv.sum_serve_p50_us", "us", "lower"},
	{"sumdsrv.allocs_per_add", "count", "lower"},
	{"sumdsrv.alloc_bytes_per_add", "B", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"process.cpu_us_per_mval", "us", "lower"},
	{"wal.fsyncs_per_write", "count", "lower"},
	{"wal.commits_per_write", "count", "lower"},
	{"wal.bytes_per_value", "B", "lower"},
	{"wal.append_commit_p50_us", "us", "lower"},
	{"wal.open_s", "s", "lower"},
	{"shard.addbatch_p50_us", "us", "lower"},
	{"shard.sum_p50_us", "us", "lower"},
	{"proxy.write_serve_p50_us", "us", "lower"},
	{"proxy.write_serve_p99_us", "us", "lower"},
	{"proxy.write_self_p50_us", "us", "lower"},
	{"proxy.leg_p50_us", "us", "lower"},
	{"proxy.slowest_leg_p50_us", "us", "lower"},
	{"sumdsrv.keyed_push_serve_p50_us", "us", "lower"},
	{"proxy.read_serve_p50_us", "us", "lower"},
	{"sumdsrv.keyed_sum_serve_p50_us", "us", "lower"},
	{"keyed.envelope_build_p50_us", "us", "lower"},
	{"keyed.import_merge_p50_us", "us", "lower"},
	{"proxy.legs_per_write", "count", "lower"},
	{"proxy.legs_failed", "count", "lower"},
	{"proxy.hints_queued", "count", "lower"},
	{"proxy.read_failovers", "count", "lower"},
	{"sumdsrv.dedup_hits", "count", "lower"},
	{"trace.overhead_frac", "ratio", "higher"},
}

var inf = math.Inf(1)

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 15

// maxErrs caps the correctness failures one phase records.
const maxErrs = 8

// config is what every workload is given.
type config struct {
	seed    uint64
	seconds float64
	nproc   int
	workDir string // scratch space inside the checkout
}

// phase is what one timed load measured: the set-up repetitions, every
// op, and the counters and spans read around it.
type phase struct {
	setup  []float64 // seconds per set-up repetition
	ops    []op
	layers map[string]float64 // per-layer values measured during the load
	absent map[string]bool    // counters whose /metrics family is missing
	errs   []string           // correctness failures
}

func (ph *phase) mismatch(format string, args ...any) {
	ph.errs = append(ph.errs, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload, its inputs already generated.
type workload interface {
	// load sets up the program, runs the closed loop for d, checks the
	// results and tears down.
	load(d time.Duration, tr *tracer) (*phase, error)
	// probes measures the per-layer probes after the traced load.
	probes(ph *phase) error
}

type workloadDef struct {
	name    string
	primary uint8 // the op kind op_p50_ms measures
	make    func(cfg config) (workload, error)
}

var workloads = []workloadDef{
	{"array-sum", opCall, newArraySum},
	{"ingest-bulk", opWrite, newIngestBulk},
	{"proxy-keyed", opWrite, newProxyKeyed},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// summary is printed before the result line; it carries every figure
// of the run and ends with "claim": null, since the benchmark claims no
// gain.
type summary struct {
	Workload   string               `json:"workload"`
	Traced     bool                 `json:"traced"`
	Seconds    float64              `json:"seconds"`
	Provenance provenance           `json:"provenance"`
	Samples    map[string]int       `json:"samples"`
	TailP      map[string]float64   `json:"tail_percentile"`
	Figures    map[string]metricOut `json:"figures"`
	// Groups is the throughput of each tenth of the load, in order.
	Groups []float64         `json:"throughput_groups_mvals_s"`
	Notes  map[string]string `json:"notes,omitempty"`
	Errors []string          `json:"errors,omitempty"`
	Claim  *string           `json:"claim"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "load duration in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run for the per-layer metrics")
	workDir := flag.String("work-dir", ".bench_build", "scratch directory for WAL dirs and span files")
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <array-sum|ingest-bulk|proxy-keyed> --seed n --seconds s --trace 0|1\n")
		os.Exit(2)
	}
	dir, err := filepath.Abs(*workDir)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: work dir: %v\n", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, nproc: runtime.NumCPU(), workDir: dir}
	sum, res, err := run(*def, cfg, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	for _, e := range sum.Errors {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", def.name, e)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, v := range []any{sum, res} {
		if err := enc.Encode(v); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: writing the result: %v\n", def.name, err)
			os.Exit(1)
		}
	}
}

func run(def workloadDef, cfg config, traced bool) (summary, result, error) {
	sum := summary{
		Workload: def.name, Traced: traced, Seconds: cfg.seconds,
		Provenance: readProvenance(cfg.workDir, cfg.seed),
		Samples:    map[string]int{}, TailP: map[string]float64{},
		Figures: map[string]metricOut{}, Notes: map[string]string{},
	}
	w, err := def.make(cfg)
	if err != nil {
		return sum, result{}, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	var phases []*phase
	if !traced {
		ph, err := w.load(d, nil)
		if err != nil {
			return sum, result{}, err
		}
		phases = []*phase{ph}
	} else {
		// Half the time untraced, half traced, each on fresh servers:
		// counters and CPU come from the untraced half, spans from the
		// traced one, and their throughputs give the tracing overhead.
		plain, err := w.load(d/2, nil)
		if err != nil {
			return sum, result{}, err
		}
		tr := newTracer()
		tph, err := w.load(d/2, tr)
		if err != nil {
			return sum, result{}, err
		}
		if err := w.probes(tph); err != nil {
			return sum, result{}, err
		}
		for k, v := range spanLayers(tr.all()) {
			tph.layers[k] = v
		}
		tph.layers["trace.overhead_frac"] = overheadFrac(throughput(tph.ops), throughput(plain.ops))
		path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.jsonl", def.name, cfg.seed))
		if err := tr.writeFile(path); err != nil {
			return sum, result{}, fmt.Errorf("writing spans: %w", err)
		}
		sum.Notes["spans"] = path
		sum.Notes["core.parallel_speedup"] = "base: one parsum.Sum over the same input on one goroutine"
		sum.Notes["per_layer"] = "a metric this workload does not measure reports 0"
		phases = []*phase{plain, tph}
	}
	res := result{Correct: true, Metrics: map[string]metricOut{}}
	for _, ph := range phases {
		for _, o := range ph.ops {
			res.Attempted++
			if !o.ok {
				res.Failed++
			}
		}
		if len(ph.errs) > 0 {
			res.Correct = false
			sum.Errors = append(sum.Errors, ph.errs...)
		}
	}
	ph := phases[0]
	rss, err := peakRSSMB()
	if err != nil {
		return sum, result{}, err
	}
	e2e := map[string]float64{
		"setup_s":            median(ph.setup),
		"throughput_mvals_s": throughput(ph.ops),
		"peak_rss_mb":        rss,
	}
	e2e["op_p50_ms"] = finite(percentile(latencies(ph.ops, def.primary), 50), ph.ops)
	sum.Groups = groupRates(ph.ops, 0, 10)
	for k, v := range e2e {
		sum.Figures[k] = metricOut{v, unitOf(k)}
	}
	// The workload-specific figures: each latency with its median and the
	// highest percentile that has at least ten samples beyond it.
	kinds := []struct {
		kind uint8
		name string
	}{{opCall, "sum_call"}, {opWrite, "write"}, {opRead, "read"}}
	for _, k := range kinds {
		lat := latencies(ph.ops, k.kind)
		if len(lat) == 0 {
			continue
		}
		sum.Samples[k.name] = len(lat)
		sum.Figures[k.name+"_p50_ms"] = metricOut{finite(percentile(lat, 50), ph.ops), "ms"}
		if p := tailPercentile(len(lat)); p > 50 {
			sum.TailP[k.name] = p
			sum.Figures[fmt.Sprintf("%s_p%g_ms", k.name, p)] = metricOut{finite(percentile(lat, p), ph.ops), "ms"}
		}
	}
	sum.Samples["setup"] = len(ph.setup)
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricOut{e2e[m.name], m.unit}
		}
		return sum, res, nil
	}
	layers := phases[1].layers
	for k, v := range phases[0].layers {
		// Counters and CPU shares come from the untraced half.
		layers[k] = v
	}
	for _, m := range perLayer {
		if phases[0].absent[m.name] {
			continue
		}
		v := layers[m.name] // 0 when this workload does not measure it
		res.Metrics[m.name] = metricOut{v, m.unit}
		sum.Figures[m.name] = metricOut{v, m.unit}
	}
	return sum, res, nil
}

// throughput is the values the load acknowledged per second, in
// millions: the rate of one group holding every op.
func throughput(ops []op) float64 {
	if r := groupRates(ops, 0, 1); len(r) > 0 {
		return r[0]
	}
	return 0
}

// finite maps the +Inf a failed op stands for to the load's length: a
// failed op counts as slower than any bound, and JSON has no infinity.
func finite(ms float64, ops []op) float64 {
	if math.IsInf(ms, 1) && len(ops) > 0 {
		return float64(ops[len(ops)-1].end) / 1e6
	}
	return ms
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
