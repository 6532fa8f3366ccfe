// Failed journal commits: a mutation whose commit fails — a flush group
// of adds and subs, a partial or keyed push, a reset — must be answered
// 500 with nothing applied and nothing left in the journal, so the live
// sums and the sums a restart recovers agree.
package sumdsrv_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parsum"
	"parsum/internal/sumdclient"
	"parsum/internal/sumdsrv"
)

// densePartial returns xs as a dense engine wire partial.
func densePartial(t *testing.T, xs []float64) []byte {
	t.Helper()
	acc, err := parsum.NewAccumulatorEngine("dense")
	if err != nil {
		t.Fatal(err)
	}
	acc.AddSlice(xs)
	blob, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// keyedPayloads returns xs added to key as a binary keyed envelope and
// as the per-key partials of the JSON push.
func keyedPayloads(t *testing.T, key string, xs []float64) ([]byte, []parsum.KeyPartial) {
	t.Helper()
	k, err := parsum.NewKeyed(parsum.KeyedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k.Add(key, xs)
	env, err := k.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := k.ExportPartials("", "")
	if err != nil {
		t.Fatal(err)
	}
	return env, ps
}

// blockNextSegment puts a directory where the journal's next segment
// file goes. With WALSegBytes 1 every commit rotates first, so every
// commit fails until the returned func removes the block.
func blockNextSegment(t *testing.T, dir string) (unblock func()) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") && e.Name() > newest {
			newest = e.Name()
		}
	}
	var idx int64
	if _, err := fmt.Sscanf(newest, "wal-%d.seg", &idx); err != nil {
		t.Fatalf("no segment to follow in %s: %v", dir, err)
	}
	block := filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", idx+1))
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.Remove(block); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedCommitAnswers500AndAppliesNothing drives every mutating
// route — plain and keyed adds and subs, partial pushes, binary and JSON
// keyed pushes, a reset — into a journal whose commit fails: each must
// be answered 500 and leave the served sums, and the key set, as they
// were.
func TestFailedCommitAnswers500AndAppliesNothing(t *testing.T) {
	dir := t.TempDir()
	_, c, _ := startServer(t, sumdsrv.Options{WALDir: dir, WALFsync: "always", WALSegBytes: 1})
	ctx := context.Background()
	if err := c.AddBatch(ctx, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddKeyed(ctx, "k", []float64{2}); err != nil {
		t.Fatal(err)
	}
	partial := densePartial(t, []float64{10})
	envelope, _ := keyedPayloads(t, "k", []float64{20})
	_, jsonPartials := keyedPayloads(t, "fresh", []float64{30})
	unblock := blockNextSegment(t, dir)
	for name, send := range map[string]func() error{
		"add":                func() error { return c.AddBatch(ctx, []float64{10}) },
		"sub":                func() error { return c.SubBatch(ctx, []float64{1}) },
		"keyed add":          func() error { return c.AddKeyed(ctx, "k", []float64{20}) },
		"keyed sub":          func() error { return c.SubKeyed(ctx, "k", []float64{2}) },
		"new key":            func() error { return c.AddKeyed(ctx, "fresh", []float64{30}) },
		"partial":            func() error { return c.PushPartial(ctx, partial) },
		"keyed partial":      func() error { _, err := c.PushKeyed(ctx, envelope); return err },
		"keyed partial json": func() error { _, err := c.PushKeyedPartials(ctx, jsonPartials); return err },
		"reset":              func() error { return c.Reset(ctx) },
	} {
		if err := send(); err == nil || !strings.Contains(err.Error(), "HTTP 500") {
			t.Errorf("%s with a failing journal: err = %v, want HTTP 500", name, err)
		}
	}
	if got, err := c.Sum(ctx); err != nil || got != 1 {
		t.Errorf("global sum after failed commits = %g (err %v), want 1", got, err)
	}
	if got, ok, err := c.SumKey(ctx, "k"); err != nil || !ok || got != 2 {
		t.Errorf("key k after failed commits = %g ok=%t (err %v), want 2", got, ok, err)
	}
	if keys, err := c.Keys(ctx, "", ""); err != nil || len(keys) != 1 || keys[0] != "k" {
		t.Errorf("keys after failed commits = %q (err %v), want [k]", keys, err)
	}
	unblock()
	if err := c.AddBatch(ctx, []float64{100}); err != nil {
		t.Fatalf("add after the journal healed: %v", err)
	}
	if got, err := c.Sum(ctx); err != nil || got != 101 {
		t.Errorf("global sum after healing = %g (err %v), want 101", got, err)
	}
}

// TestRestartAfterFailedCommitRecoversLiveSum: requests answered 500 —
// batches and partial pushes — must not be journaled by a later
// successful commit, so a restart recovers exactly the sums the live
// process served.
func TestRestartAfterFailedCommitRecoversLiveSum(t *testing.T) {
	dir := t.TempDir()
	srv, c, _ := startServer(t, sumdsrv.Options{WALDir: dir, WALFsync: "always", WALSegBytes: 1})
	ctx := context.Background()
	if err := c.AddBatch(ctx, []float64{1}); err != nil {
		t.Fatal(err)
	}
	unblock := blockNextSegment(t, dir)
	if err := c.AddBatch(ctx, []float64{10}); err == nil {
		t.Fatal("add with a failing journal succeeded")
	}
	if err := c.AddKeyed(ctx, "k", []float64{10}); err == nil {
		t.Fatal("keyed add with a failing journal succeeded")
	}
	if err := c.PushPartial(ctx, densePartial(t, []float64{1000})); err == nil {
		t.Fatal("partial push with a failing journal succeeded")
	}
	unblock()
	if err := c.AddBatch(ctx, []float64{100}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddKeyed(ctx, "k", []float64{5}); err != nil {
		t.Fatal(err)
	}
	live, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	liveK, _, err := c.SumKey(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()

	_, c2, _ := startServer(t, sumdsrv.Options{WALDir: dir})
	got, err := c2.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(live) || live != 101 {
		t.Errorf("recovered sum %g, live sum %g (want both 101)", got, live)
	}
	gotK, _, err := c2.SumKey(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(gotK) != math.Float64bits(liveK) || liveK != 5 {
		t.Errorf("recovered key k %g, live %g (want both 5)", gotK, liveK)
	}
}

// TestTokenedRetryAfterFailedCommitAppliesOnce: a tokened push whose
// commit fails is answered 500 and never enters the idempotency window,
// so its retry after the journal heals applies it — once, live and
// after a restart — and a second retry is the duplicate.
func TestTokenedRetryAfterFailedCommitAppliesOnce(t *testing.T) {
	envelope, _ := keyedPayloads(t, "k", []float64{10})
	for _, tc := range []struct {
		name, path string
		body       []byte
		sum        func(*testing.T, context.Context, *sumdclient.Client) float64
	}{
		{"partial", "/v1/partial", densePartial(t, []float64{10}), globalSum},
		{"keyed partial", "/v1/keyed/partial", envelope, keySum},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			srv, c, hs := startServer(t, sumdsrv.Options{WALDir: dir, WALFsync: "always", WALSegBytes: 1})
			if err := c.AddBatch(ctx, []float64{1}); err != nil {
				t.Fatal(err)
			}
			if err := c.AddKeyed(ctx, "k", []float64{1}); err != nil {
				t.Fatal(err)
			}
			const token = "retry-after-failed-commit"
			unblock := blockNextSegment(t, dir)
			if code, body := postToken(t, hs.URL+tc.path, token, tc.body); code != http.StatusInternalServerError {
				t.Fatalf("push with a failing journal: %d %s, want 500", code, body)
			}
			unblock()
			if code, body := postToken(t, hs.URL+tc.path, token, tc.body); code != http.StatusOK || body != `{"merged":1}` {
				t.Fatalf("retry after the journal healed: %d %s, want 200 {\"merged\":1}", code, body)
			}
			if code, body := postToken(t, hs.URL+tc.path, token, tc.body); code != http.StatusOK || body != `{"merged":0,"duplicate":true}` {
				t.Fatalf("second retry: %d %s, want the duplicate", code, body)
			}
			if got := tc.sum(t, ctx, c); got != 11 {
				t.Fatalf("live sum %g, want 11 (the push counted once)", got)
			}
			srv.Close()

			_, c2, hs2 := startServer(t, sumdsrv.Options{WALDir: dir})
			if got := tc.sum(t, ctx, c2); got != 11 {
				t.Fatalf("recovered sum %g, want 11", got)
			}
			if code, body := postToken(t, hs2.URL+tc.path, token, tc.body); code != http.StatusOK || body != `{"merged":0,"duplicate":true}` {
				t.Fatalf("retry after a restart: %d %s, want the duplicate", code, body)
			}
		})
	}
}

func globalSum(t *testing.T, ctx context.Context, c *sumdclient.Client) float64 {
	t.Helper()
	v, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func keySum(t *testing.T, ctx context.Context, c *sumdclient.Client) float64 {
	t.Helper()
	v, ok, err := c.SumKey(ctx, "k")
	if err != nil || !ok {
		t.Fatalf("SumKey(k): ok=%t err=%v", ok, err)
	}
	return v
}

// postToken posts an octet-stream body under an Idempotency-Key and
// returns the status and the trimmed reply.
func postToken(t *testing.T, url, token string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("Idempotency-Key", token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(data))
}
