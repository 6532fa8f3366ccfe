package main

import (
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestRunUsageErrors(t *testing.T) {
	ctx := context.Background()
	var out, errb strings.Builder
	if got := run(ctx, []string{"-no-such-flag"}, &out, &errb); got != 2 {
		t.Errorf("bad flag: exit %d, want 2", got)
	}
	if got := run(ctx, []string{"stray-arg"}, &out, &errb); got != 2 {
		t.Errorf("stray arg: exit %d, want 2", got)
	}
	// The service runs one representation; there is no engine to pick.
	if got := run(ctx, []string{"-engine", "dense"}, &out, &errb); got != 2 {
		t.Errorf("removed -engine flag: exit %d, want 2", got)
	}
	if got := run(ctx, []string{"-addr", "256.256.256.256:1"}, &out, &errb); got != 1 {
		t.Errorf("unbindable addr: exit %d, want 1", got)
	}
	// Ingest runs one self-clocking batcher; there is no mode or flush
	// timing to pick.
	for _, args := range [][]string{
		{"-async"},
		{"-maxbatch", "1024"},
		{"-maxdelay", "1ms"},
		{"-flushers", "2"},
	} {
		if got := run(ctx, args, &out, &errb); got != 2 {
			t.Errorf("removed flag %v: exit %d, want 2", args, got)
		}
	}
	// Same for the WAL tuning knobs without -wal.
	for _, args := range [][]string{
		{"-fsync", "off"},
		{"-segbytes", "1024"},
		{"-snapshot-every", "10"},
	} {
		errb.Reset()
		if got := run(ctx, args, &out, &errb); got != 2 {
			t.Errorf("%v without -wal: exit %d, want 2", args, got)
		}
		if !strings.Contains(errb.String(), "require -wal") {
			t.Errorf("%v: stderr %q does not explain the -wal requirement", args, errb.String())
		}
	}
	// An unknown fsync policy is a startup error, not a silent default.
	errb.Reset()
	if got := run(ctx, []string{"-wal", t.TempDir(), "-fsync", "sometimes"}, &out, &errb); got != 2 {
		t.Errorf("unknown fsync policy: exit %d, want 2", got)
	}
}

// TestRunWALRecoversAcrossRestarts is the end-to-end durability loop at
// the flag level: ingest into a -wal daemon, stop it, start a second
// daemon on the same directory, and read back the identical sum.
func TestRunWALRecoversAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-shards", "2", "-wal", dir, "-fsync", "off"}

	addr, cancel, done := startDaemon(t, args)
	base := "http://" + addr
	resp, err := http.Post(base+"/v1/add", "application/json", strings.NewReader(`{"values":[1.5,2.25]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("add: %d", resp.StatusCode)
	}
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("first daemon exit %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first daemon did not shut down")
	}

	addr, cancel, done = startDaemon(t, args)
	defer cancel()
	resp, err = http.Get("http://" + addr + "/v1/sum")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"sum":"3.75"`) {
		t.Fatalf("sum after restart: %s", body)
	}
	resp, err = http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"wal"`) {
		t.Fatalf("stats of a -wal daemon lack the wal section: %s", body)
	}
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("second daemon exit %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second daemon did not shut down")
	}
}

// startDaemon runs the daemon in the background and returns its bound
// address once the "listening on" line appears.
func startDaemon(t *testing.T, args []string) (addr string, cancel context.CancelFunc, done chan int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	outc := make(chan string, 16)
	done = make(chan int, 1)
	go func() {
		var errb strings.Builder
		done <- run(ctx, args, &allLineWriter{c: outc}, &errb)
	}()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line := <-outc:
			if m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(line); m != nil {
				return m[1], cancel, done
			}
		case <-deadline:
			cancel()
			t.Fatal("sumd did not report a listen address")
		}
	}
}

// allLineWriter forwards every Write as a string on the channel (the
// recovery report precedes the "listening on" line under -wal).
type allLineWriter struct {
	c chan<- string
}

func (w *allLineWriter) Write(p []byte) (int, error) {
	select {
	case w.c <- string(p):
	default:
	}
	return len(p), nil
}

func TestRunAsyncModeServesBatchedIngest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	outc := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		var errb strings.Builder
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-shards", "2", "-queue", "64",
		}, &lineWriter{c: outc}, &errb)
	}()

	var addr string
	select {
	case line := <-outc:
		m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("no address in %q", line)
		}
		addr = m[1]
	case <-time.After(5 * time.Second):
		t.Fatal("sumd did not report a listen address")
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/add", "application/json", strings.NewReader(`{"values":[1.5,2.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batched add: %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "sumd_ingest_enqueued_total") {
		t.Error("/metrics of the daemon lacks the ingest families")
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("clean shutdown exit %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sumd did not shut down")
	}
}

func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	outc := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		var errb strings.Builder
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-shards", "2", "-partitions", "4"}, &lineWriter{c: outc}, &errb)
	}()

	// The first output line reports the bound address.
	var addr string
	select {
	case line := <-outc:
		m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("no address in %q", line)
		}
		addr = m[1]
	case <-time.After(5 * time.Second):
		t.Fatal("sumd did not report a listen address")
	}

	resp, err := http.Get("http://" + addr + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// The -partitions flag stands up the keyed surface: a keyed add must
	// round-trip through /v1/sum?key= and report the configured stripes.
	resp, err = http.Post("http://"+addr+"/v1/add?key=acct", "application/json", strings.NewReader(`{"values":[1.25,2.25]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("keyed add: %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + addr + "/v1/sum?key=acct")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"sum":"3.5"`) {
		t.Fatalf("keyed sum: status %d body %s", resp.StatusCode, body)
	}
	resp, err = http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"partitions":4`) {
		t.Fatalf("stats do not report the -partitions value: %s", body)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("clean shutdown exit %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sumd did not shut down")
	}
}

// lineWriter forwards its first Write as a string on the channel — enough
// to capture the "listening on" line without buffering races.
type lineWriter struct {
	c    chan<- string
	sent bool
}

func (w *lineWriter) Write(p []byte) (int, error) {
	if !w.sent {
		w.sent = true
		w.c <- string(p)
	}
	return len(p), nil
}
