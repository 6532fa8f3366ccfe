package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Operation kinds.
const (
	opCall  = iota // one parsum.SumParallel call
	opWrite        // one write request
	opRead         // one read request
)

// op is one timed operation of the closed loop.
type op struct {
	end    int64 // ns since the load started
	lat    int64 // ns
	values int32 // values the op carried
	kind   uint8
	ok     bool
}

// closedLoop runs one goroutine per client. Each calls step with its
// client index and its own op counter until step reports done, sending
// the next op only after the previous one returned. It returns every op,
// sorted by completion.
func closedLoop(clients int, step func(c, i int) (kind uint8, values int, ok, done bool)) []op {
	logs := make([][]op, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			log := make([]op, 0, 1<<14)
			for i := 0; ; i++ {
				t0 := time.Since(start)
				kind, values, ok, done := step(c, i)
				if done {
					break
				}
				t1 := time.Since(start)
				log = append(log, op{end: int64(t1), lat: int64(t1 - t0), values: int32(values), kind: kind, ok: ok})
			}
			logs[c] = log
		}()
	}
	wg.Wait()
	var ops []op
	for _, l := range logs {
		ops = append(ops, l...)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	return ops
}

// latencies returns the latencies in ms of ops of one kind; a failed op
// is +Inf, so it misses any bound.
func latencies(ops []op, kind uint8) []float64 {
	var ms []float64
	for _, o := range ops {
		if o.kind != kind {
			continue
		}
		if o.ok {
			ms = append(ms, float64(o.lat)/1e6)
		} else {
			ms = append(ms, inf)
		}
	}
	return ms
}

// server is one in-process HTTP server on a loopback listener.
type server struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to end.
func (s *server) close() {
	_ = s.hs.Close()
	<-s.done
}

// httpClient returns a client with its own connection pool; with a
// tracer its transport stamps the trace header.
func httpClient(tr *tracer) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 8
	var rt http.RoundTripper = t
	if tr != nil {
		rt = headerTransport{base: t}
	}
	return &http.Client{Transport: rt}
}

// promText maps each series of a Prometheus text scrape ("name" or
// `name{label="v"}`) to its value.
type promText map[string]float64

func scrape(ctx context.Context, hc *http.Client, url string) (promText, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return parseProm(body), nil
}

func parseProm(body []byte) promText {
	p := promText{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		p[strings.TrimSpace(line[:i])] = v
	}
	return p
}

// family returns the sum of every series of the named family, and false
// when the scrape has none: a renamed family leaves its metric absent.
func (p promText) family(name string) (float64, bool) {
	var sum float64
	found := false
	for s, v := range p {
		if s == name || strings.HasPrefix(s, name+"{") {
			sum += v
			found = true
		}
	}
	return sum, found
}

// counterDelta returns after − before for a family summed over scrapes
// (one per server), and false when any scrape lacks it.
func counterDelta(before, after []promText, name string) (float64, bool) {
	var d float64
	for i := range after {
		a, ok1 := after[i].family(name)
		b, ok2 := before[i].family(name)
		if !ok1 || !ok2 {
			return 0, false
		}
		d += a - b
	}
	return d, true
}

// usage is a point-in-time reading of the process's CPU time and the Go
// runtime's GC CPU estimate.
type usage struct {
	cpu     time.Duration // user + system, from getrusage
	gcCPU   float64       // seconds
	usedCPU float64       // seconds, total minus idle
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	u := usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
		u.usedCPU = s[1].Value.Float64() - s[2].Value.Float64()
	}
	return u
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsName names the filesystem holding dir, from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// provenance is recorded with every result.
type provenance struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	WALFS      string `json:"wal_fs"`
	Seed       uint64 `json:"seed"`
}

func readProvenance(workDir string, seed uint64) provenance {
	return provenance{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		WALFS:      fsName(workDir),
		Seed:       seed,
	}
}

func newPhase() *phase {
	return &phase{layers: map[string]float64{}, absent: map[string]bool{}}
}

// usageLayers records the process CPU per million acknowledged values
// and the GC's share of the CPU the process used over a load.
func usageLayers(ph *phase, u0, u1 usage) {
	var vals int64
	for _, o := range ph.ops {
		if o.ok {
			vals += int64(o.values)
		}
	}
	if vals > 0 {
		ph.layers["process.cpu_us_per_mval"] = float64(u1.cpu-u0.cpu) / 1e3 / (float64(vals) / 1e6)
	}
	if used := u1.usedCPU - u0.usedCPU; used > 0 {
		ph.layers["runtime.gc_cpu_frac"] = (u1.gcCPU - u0.gcCPU) / used
	}
}
