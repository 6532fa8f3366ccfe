// Command sumd is the distributed exact-aggregation daemon: an HTTP merge
// service backed by a sharded superaccumulator. Workers combine their
// slice of the input locally and push serialized exact partials (or raw
// value batches); sumd merges them carry-free and serves the correctly
// rounded sum, bit-identical to summing the concatenated input
// sequentially regardless of how the work was partitioned or interleaved.
//
// Usage:
//
//	sumd -addr :8372 -shards 8
//	sumd -queue 512       # ingest requests admitted but not yet flushed
//	sumd -partitions 16   # keyed-store stripes for /v1/add?key=…
//
// /v1/add and /v1/sub go through one group-commit batcher: a bounded
// queue drained by GOMAXPROCS flushers, each journaling and applying
// whatever is queued the moment it is free, and 429 with Retry-After
// when the queue is full. Every ingest counter is served in Prometheus
// text format on GET /metrics.
//
// With -wal DIR, every state-mutating request is journaled to an
// append-only CRC-framed log in DIR and committed before it is
// acknowledged; on startup the daemon replays the directory and resumes
// with bit-identical pre-crash sums. -fsync picks the commit durability
// (always | interval | off), -segbytes the segment rotation threshold,
// and -snapshot-every N writes a state snapshot (truncating the
// replayed log) every N journaled mutations; a snapshot is also written
// whenever the log since the last one passes 1 GiB:
//
//	sumd -wal /var/lib/sumd/wal -fsync always -snapshot-every 100000
//
// Endpoints (see internal/sumdsrv): POST /v1/add, POST/GET /v1/partial,
// GET /v1/sum, POST /v1/reset, GET /v1/stats, GET /v1/healthz,
// GET /metrics — plus the keyed surface: /v1/add?key=, /v1/sum?key=,
// GET /v1/keys, POST/GET /v1/keyed/partial.
//
// The HTTP server is hardened against stuck and malicious peers with
// -read-header-timeout, -read-timeout, -write-timeout, and
// -idle-timeout (see internal/httpd for the defaults; negative
// disables one).
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
	"syscall"
	"time"

	"parsum/internal/httpd"
	"parsum/internal/sumdsrv"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: parse args, bind, serve until ctx is
// cancelled. It returns the process exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sumd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8372", "listen address (host:port; port 0 picks a free port)")
		shards   = fs.Int("shards", 0, "writer-stripe count (0 = GOMAXPROCS)")
		parts    = fs.Int("partitions", 0, "keyed-store partition count (0 = GOMAXPROCS)")
		maxBody  = fs.Int64("maxbody", 0, "request-body cap in bytes (0 = 64 MiB default)")
		queue    = fs.Int("queue", 0, "ingest queue capacity in requests; beyond it /v1/add and /v1/sub answer 429 (0 = 256)")
		walDir   = fs.String("wal", "", "write-ahead-log directory; journal every ingest and recover on startup (empty = no durability)")
		fsyncPol = fs.String("fsync", "", "wal: fsync policy: always, interval, or off (default always)")
		segBytes = fs.Int64("segbytes", 0, "wal: segment rotation threshold in bytes (0 = 64 MiB)")
		snapN    = fs.Int("snapshot-every", 0, "wal: write a snapshot every N journaled mutations (0 = only when the log passes 1 GiB)")
		timeouts = httpd.Flags(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "sumd: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *walDir == "" && (*fsyncPol != "" || *segBytes != 0 || *snapN != 0) {
		fmt.Fprintln(stderr, "sumd: -fsync/-segbytes/-snapshot-every require -wal")
		return 2
	}
	srv, err := sumdsrv.New(sumdsrv.Options{
		Shards: *shards, KeyPartitions: *parts, MaxBodyBytes: *maxBody, QueueLen: *queue,
		WALDir: *walDir, WALFsync: *fsyncPol, WALSegBytes: *segBytes, WALSnapshotEvery: *snapN,
	})
	if err != nil {
		fmt.Fprintln(stderr, "sumd:", err)
		return 2
	}
	// Drain the ingest batcher (and seal the journal) on every exit path
	// so accepted batches are never dropped.
	defer srv.Close()
	if *walDir != "" {
		rec := srv.Recovery()
		fmt.Fprintf(stdout, "sumd: wal recovered records=%d snapshot=%t torn=%t truncated_bytes=%d\n",
			rec.Records, rec.SnapshotLoaded, rec.Torn, rec.TruncatedBytes)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "sumd:", err)
		return 1
	}
	fmt.Fprintf(stdout, "sumd: listening on %s\n", ln.Addr())

	hs := timeouts.Server(srv)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shctx); err != nil {
			fmt.Fprintln(stderr, "sumd: shutdown:", err)
			return 1
		}
		fmt.Fprintln(stdout, "sumd: shut down")
		return 0
	case err := <-errc:
		fmt.Fprintln(stderr, "sumd:", err)
		return 1
	}
}
