// End-to-end durability tests beyond the crash matrix: snapshot-and-
// truncate cycles, journaled blob pushes (plain partials, binary keyed
// envelopes, keyed JSON) replayed bit-exactly, idempotency tokens
// surviving snapshots and restarts, and concurrent batched ingest whose
// whole acked multiset must come back after a restart.
package sumdsrv_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"parsum"
	"parsum/internal/gen"
	"parsum/internal/sumdclient"
	"parsum/internal/sumdsrv"
	"parsum/internal/wal"
)

// startServer is startService but keeps the *Server handle, for tests
// that read recovery state or WAL metrics directly.
func startServer(t *testing.T, opt sumdsrv.Options) (*sumdsrv.Server, *sumdclient.Client, *httptest.Server) {
	t.Helper()
	srv, err := sumdsrv.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, sumdclient.New(hs.URL, hs.Client()), hs
}

func walStats(t *testing.T, base string) sumdsrv.WALStats {
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
		WAL *sumdsrv.WALStats `json:"wal"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding stats %s: %v", data, err)
	}
	if st.WAL == nil {
		t.Fatalf("stats of a WAL-enabled server lack the wal section: %s", data)
	}
	return *st.WAL
}

// TestWALSnapshotsAndBlobReplay drives every journaled record shape —
// raw batches, plain partial blobs, binary keyed envelopes, keyed JSON —
// through a server snapshotting every few mutations, then restarts from
// the directory and demands identical bits. It also proves the
// idempotency window rides snapshots: a pre-restart push retried after
// the restart must be recognized as a duplicate.
func TestWALSnapshotsAndBlobReplay(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srv, c, hs := startServer(t, sumdsrv.Options{
		Shards: 2, KeyPartitions: 2,
		WALDir: dir, WALFsync: "off", WALSnapshotEvery: 5,
	})
	if !srv.Durable() {
		t.Fatal("server with a WAL directory is not durable")
	}

	xs := gen.New(gen.Config{Dist: gen.Random, N: 300, Delta: 80, Seed: 17}).Slice()
	oracle, _ := parsum.NewAccumulatorEngine("dense")

	// Five raw mutations — exactly one snapshot cycle, so everything
	// below it lands in the replayed tail.
	if err := c.AddBatch(ctx, xs[:100]); err != nil {
		t.Fatal(err)
	}
	oracle.AddSlice(xs[:100])
	if err := c.SubBatch(ctx, xs[:20]); err != nil {
		t.Fatal(err)
	}
	oracle.SubSlice(xs[:20])
	if err := c.AddKeyed(ctx, "raw", xs[200:260]); err != nil {
		t.Fatal(err)
	}
	if err := c.SubKeyed(ctx, "raw", xs[200:230]); err != nil {
		t.Fatal(err)
	}
	rawOracle, _ := parsum.NewAccumulatorEngine("dense")
	rawOracle.AddSlice(xs[200:260])
	rawOracle.SubSlice(xs[200:230])
	if err := c.AddBatch(ctx, xs[260:]); err != nil {
		t.Fatal(err)
	}
	oracle.AddSlice(xs[260:])

	// A plain partial blob, pushed with an explicit idempotency token so
	// the same bytes can be retried across the restart below. This and
	// the keyed blobs after it sit past the snapshot: recovery must
	// replay them (and re-arm the token) from the journal itself.
	staged, _ := parsum.NewAccumulatorEngine("dense")
	staged.AddSlice(xs[100:150])
	blob, err := staged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	oracle.AddSlice(xs[100:150])
	const token = "e2e-idem-token-0001"
	if code := postIdem(t, hs.URL+"/v1/partial", "application/octet-stream", token, blob); code != 200 {
		t.Fatalf("tokened partial push: %d", code)
	}

	// A binary keyed envelope and the keyed JSON form.
	kc := c.NewKeyedCombiner()
	kc.Add("env", xs[150:200])
	if _, err := kc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	ps, err := c.PullKeyedPartials(ctx, "env", "env\x00")
	if err != nil || len(ps) != 1 {
		t.Fatalf("pulling key env: n=%d err=%v", len(ps), err)
	}
	if _, err := c.PushKeyedPartials(ctx, []parsum.KeyPartial{{Key: "json", Blob: ps[0].Blob}}); err != nil {
		t.Fatal(err)
	}
	keyWant := math.Float64bits(parsum.Sum(xs[150:200]))

	// Five raw mutations at snapshot-every-5: exactly one snapshot ran,
	// and the three blob pushes above stayed in the replayed tail.
	st := walStats(t, hs.URL)
	if st.Snapshots < 1 {
		t.Fatalf("snapshots = %d, want >= 1", st.Snapshots)
	}
	if st.Errors != 0 {
		t.Fatalf("journal errors: %d (%s)", st.Errors, st.LastError)
	}
	wantSum := math.Float64bits(oracle.Round())

	// Restart from the directory bytes.
	srv2, c2, hs2 := startServer(t, sumdsrv.Options{
		Shards: 2, KeyPartitions: 2,
		WALDir: restoreWAL(t, walBytes(t, dir)), WALFsync: "off", WALSnapshotEvery: 5,
	})
	if !srv2.Recovery().SnapshotLoaded {
		t.Error("recovery did not load the snapshot")
	}
	got, err := c2.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != wantSum {
		t.Errorf("recovered sum %x, want %x", math.Float64bits(got), wantSum)
	}
	for _, key := range []string{"env", "json"} {
		kv, ok, err := c2.SumKey(ctx, key)
		if err != nil || !ok {
			t.Fatalf("recovered SumKey(%q): ok=%t err=%v", key, ok, err)
		}
		if math.Float64bits(kv) != keyWant {
			t.Errorf("recovered key %q: %x, want %x", key, math.Float64bits(kv), keyWant)
		}
	}
	kv, ok, err := c2.SumKey(ctx, "raw")
	if err != nil || !ok {
		t.Fatalf("recovered SumKey(raw): ok=%t err=%v", ok, err)
	}
	if want := math.Float64bits(rawOracle.Round()); math.Float64bits(kv) != want {
		t.Errorf("recovered key raw: %x, want %x", math.Float64bits(kv), want)
	}

	// The pre-restart token must still dedupe: retrying the identical
	// push against the recovered server leaves the bits unchanged.
	if code := postIdem(t, hs2.URL+"/v1/partial", "application/octet-stream", token, blob); code != 200 {
		t.Fatalf("retried tokened push after restart: %d", code)
	}
	got, err = c2.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != wantSum {
		t.Errorf("retried push re-applied across restart: sum %x, want %x",
			math.Float64bits(got), wantSum)
	}
}

// TestIdemTokenReleasedOnRejectedPush: a token attached to a push the
// service rejects must not be burned — the same token with a valid body
// must then apply. And over-long tokens are a 400, not a silent accept.
func TestIdemTokenReleasedOnRejectedPush(t *testing.T) {
	ctx := context.Background()
	_, c, hs := startServer(t, sumdsrv.Options{Shards: 1})

	const token = "retry-after-reject"
	if code := postIdem(t, hs.URL+"/v1/partial", "application/octet-stream", token, []byte("garbage")); code != 400 {
		t.Fatalf("garbage partial: %d, want 400", code)
	}
	acc, _ := parsum.NewAccumulatorEngine("dense")
	acc.AddSlice([]float64{1.5, 2.25})
	blob, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if code := postIdem(t, hs.URL+"/v1/partial", "application/octet-stream", token, blob); code != 200 {
		t.Fatalf("valid push reusing the rejected token: %d, want 200", code)
	}
	got, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.75 {
		t.Fatalf("sum %v, want 3.75 (rejected push burned the token)", got)
	}
	long := strings.Repeat("x", 300)
	if code := postIdem(t, hs.URL+"/v1/partial", "application/octet-stream", long, blob); code != 400 {
		t.Fatalf("over-long token: %d, want 400", code)
	}
}

func postIdem(t *testing.T, url, contentType, token string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Idempotency-Key", token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestWALReplayRejectsForeignEngineRecords: a journaled blob that does
// not decode as dense state — a sparse partial, a sparse keyed envelope,
// or sparse JSON partials — means the directory is not this service's.
// Recovery must refuse to start rather than drop the record, even after
// valid records.
func TestWALReplayRejectsForeignEngineRecords(t *testing.T) {
	partial, envelope := sparsePayloads(t, "k", []float64{2.5})
	jsonBody, err := json.Marshal(sumdsrv.KeyedPartialsRequest{
		Partials: []parsum.KeyPartial{{Key: "k", Blob: partial}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		typ  wal.Type
		blob []byte
	}{
		{wal.RecPartial, partial},
		{wal.RecKeyedEnvelope, envelope},
		{wal.RecKeyedJSON, jsonBody},
	} {
		t.Run(tc.typ.String(), func(t *testing.T) {
			dir := t.TempDir()
			wlog, _, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.PolicyOff})
			if err != nil {
				t.Fatal(err)
			}
			if err := wlog.Journal(
				wal.Record{Type: wal.RecAdd, Values: []float64{1, 2}},
				wal.Record{Type: wal.RecKeyedAdd, Key: "k", Values: []float64{3}},
				wal.Record{Type: tc.typ, Blob: tc.blob},
			); err != nil {
				t.Fatal(err)
			}
			if err := wlog.Close(); err != nil {
				t.Fatal(err)
			}
			srv, err := sumdsrv.New(sumdsrv.Options{WALDir: dir})
			if err == nil {
				srv.Close()
				t.Fatalf("server started from a WAL holding a sparse %s record", tc.typ)
			}
			if !strings.Contains(err.Error(), "wal replay record 2") {
				t.Errorf("error %q does not name the offending record", err)
			}
		})
	}
}

// TestWALAsyncConcurrentDurability hammers a WAL-enabled server
// with concurrent plain and keyed traffic (adds and retractions), then
// restarts from the directory: the recovered bits must equal the exact
// oracle over everything that was acked. Group commit means multi-item
// flush groups journal as one commit — this is the test that exercises
// mixed plain and keyed groups under contention.
func TestWALAsyncConcurrentDurability(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, c, _ := startServer(t, sumdsrv.Options{
		Shards: 2, KeyPartitions: 2,
		QueueLen: 64,
		WALDir:   dir, WALFsync: "off",
	})

	xs := gen.New(gen.Config{Dist: gen.Random, N: 4000, Delta: 400, Seed: 23}).Slice()
	parts := splitSlices(xs, 8)
	keys := []string{"a", "b", "c"}
	// One goroutine per operation: 40 simultaneous submissions against a
	// deep queue force multi-request flush groups, so group commit
	// journals several frames per fsyncless Commit.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w, part := range parts {
		for i, chunk := range splitSlices(part, 5) {
			wg.Add(1)
			go func(w, i int, chunk []float64) {
				defer wg.Done()
				var err error
				switch {
				case w%2 == 1:
					key := keys[(w+i)%len(keys)]
					if i%3 == 2 {
						err = c.SubKeyed(ctx, key, chunk)
					} else {
						err = c.AddKeyed(ctx, key, chunk)
					}
				case i%3 == 2:
					err = c.SubBatch(ctx, chunk)
				default:
					err = c.AddBatch(ctx, chunk)
				}
				if err != nil {
					errs <- err
				}
			}(w, i, chunk)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Replay the same deterministic schedule into exact oracles — order
	// does not matter, only the acked multiset.
	oracle, _ := parsum.NewAccumulatorEngine("dense")
	keyOracle := map[string]*parsum.Accumulator{}
	for w, part := range parts {
		for i, chunk := range splitSlices(part, 5) {
			switch {
			case w%2 == 1:
				key := keys[(w+i)%len(keys)]
				if keyOracle[key] == nil {
					keyOracle[key], _ = parsum.NewAccumulatorEngine("dense")
				}
				if i%3 == 2 {
					keyOracle[key].SubSlice(chunk)
				} else {
					keyOracle[key].AddSlice(chunk)
				}
			case i%3 == 2:
				oracle.SubSlice(chunk)
			default:
				oracle.AddSlice(chunk)
			}
		}
	}

	_, c2, _ := startServer(t, sumdsrv.Options{
		Shards: 2, KeyPartitions: 2,
		WALDir: restoreWAL(t, walBytes(t, dir)), WALFsync: "off",
	})
	got, err := c2.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.Round(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("recovered sum %x, want %x", math.Float64bits(got), math.Float64bits(want))
	}
	for key, acc := range keyOracle {
		kv, ok, err := c2.SumKey(ctx, key)
		if err != nil || !ok {
			t.Fatalf("recovered SumKey(%q): ok=%t err=%v", key, ok, err)
		}
		if want := acc.Round(); math.Float64bits(kv) != math.Float64bits(want) {
			t.Errorf("recovered key %q: %x, want %x", key, math.Float64bits(kv), math.Float64bits(want))
		}
	}
}
