// Command sumproxy is the fault-tolerant front door to a fleet of sumd
// backends: a consistent-hash router that replicates every keyed write
// to R backends, fails reads over down the replica list, trips
// per-backend circuit breakers around dead peers, queues hinted
// handoffs for replicas that miss acked writes, and re-converges the
// fleet with anti-entropy repair — all while preserving the exact
// summation semantics, so after a repair round every replica's per-key
// sum is bit-identical.
//
// Usage:
//
//	sumproxy -backends http://h1:8372,http://h2:8372,http://h3:8372
//	sumproxy -backends ... -replication 3 -ack quorum -repair-every 30s
//
// Endpoints (see internal/proxy): POST /v1/add?key=, POST /v1/sub?key=,
// GET /v1/sum?key=, GET /v1/keys, GET /v1/topology, POST /v1/repair,
// GET /v1/healthz, GET /v1/readyz, GET /metrics.
//
// The HTTP server shares sumd's hardening flags: -read-header-timeout,
// -read-timeout, -write-timeout, -idle-timeout (negative disables one).
//
// Exit status: 0 on clean shutdown (SIGINT/SIGTERM), 1 on serve error,
// 2 on usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"parsum/internal/httpd"
	"parsum/internal/proxy"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: parse args, bind, serve until ctx
// is cancelled. It returns the process exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sumproxy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8373", "listen address (host:port; port 0 picks a free port)")
		backends    = fs.String("backends", "", "comma-separated sumd base URLs (required)")
		replication = fs.Int("replication", 0, "replicas per key (0 = min(3, backends))")
		vnodes      = fs.Int("vnodes", 0, "ring virtual nodes per backend (0 = default)")
		ackMode     = fs.String("ack", "", "write ack mode: quorum, all, or one (default quorum)")
		timeout     = fs.Duration("timeout", 0, "per-backend-attempt deadline (0 = 5s)")
		retry429    = fs.Int("retry429", 0, "retries per backend attempt on 429 shed responses")
		brThresh    = fs.Int("breaker-threshold", 0, "consecutive failures that open a backend's breaker (0 = default)")
		brCooldown  = fs.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = default)")
		hintCap     = fs.Int("hint-cap", 0, "max queued hints per backend, oldest dropped beyond (0 = 1024)")
		replayEvery = fs.Duration("replay-every", 0, "hint-replay loop period (0 = 500ms, negative disables)")
		repairEvery = fs.Duration("repair-every", 0, "background anti-entropy period (0 = on-demand only)")
		maxBody     = fs.Int64("maxbody", 0, "request-body cap in bytes (0 = 64 MiB default)")
		timeouts    = httpd.Flags(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "sumproxy: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *backends == "" {
		fmt.Fprintln(stderr, "sumproxy: -backends is required")
		return 2
	}
	var nodes []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			nodes = append(nodes, b)
		}
	}
	p, err := proxy.New(proxy.Options{
		Backends: nodes, Replication: *replication, VNodes: *vnodes,
		AckMode: *ackMode,
		Timeout: *timeout, Retry429: *retry429,
		BreakerThreshold: *brThresh, BreakerCooldown: *brCooldown,
		HintCap: *hintCap, ReplayEvery: *replayEvery, RepairEvery: *repairEvery,
		MaxBodyBytes: *maxBody,
	})
	if err != nil {
		fmt.Fprintln(stderr, "sumproxy:", err)
		return 2
	}
	defer p.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "sumproxy:", err)
		return 1
	}
	fmt.Fprintf(stdout, "sumproxy: backends=%d replication=%d listening on %s\n",
		len(nodes), p.Replication(), ln.Addr())

	hs := timeouts.Server(p)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shctx); err != nil {
			fmt.Fprintln(stderr, "sumproxy: shutdown:", err)
			return 1
		}
		fmt.Fprintln(stdout, "sumproxy: shut down")
		return 0
	case err := <-errc:
		fmt.Fprintln(stderr, "sumproxy:", err)
		return 1
	}
}
