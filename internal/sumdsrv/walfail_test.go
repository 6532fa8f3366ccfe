// Failed journal commits on the ingest path: a flush group whose commit
// fails must be answered 500 with nothing applied and nothing left in
// the journal, so the live sums and the sums a restart recovers agree.
package sumdsrv_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parsum/internal/sumdsrv"
)

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

// TestFailedCommitAnswers500AndAppliesNothing drives plain and keyed
// adds and subs into a flush whose journal commit fails: each must be
// answered 500 and leave the served sums, and the key set, as they were.
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
	unblock := blockNextSegment(t, dir)
	for name, send := range map[string]func() error{
		"add":       func() error { return c.AddBatch(ctx, []float64{10}) },
		"sub":       func() error { return c.SubBatch(ctx, []float64{1}) },
		"keyed add": func() error { return c.AddKeyed(ctx, "k", []float64{20}) },
		"keyed sub": func() error { return c.SubKeyed(ctx, "k", []float64{2}) },
		"new key":   func() error { return c.AddKeyed(ctx, "fresh", []float64{30}) },
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
	if _, ok, err := c.SumKey(ctx, "fresh"); err != nil || ok {
		t.Errorf("a key whose only add failed exists (ok=%t, err %v)", ok, err)
	}
	unblock()
	if err := c.AddBatch(ctx, []float64{100}); err != nil {
		t.Fatalf("add after the journal healed: %v", err)
	}
	if got, err := c.Sum(ctx); err != nil || got != 101 {
		t.Errorf("global sum after healing = %g (err %v), want 101", got, err)
	}
}

// TestRestartAfterFailedCommitRecoversLiveSum: requests answered 500
// must not be journaled by a later successful commit, so a restart
// recovers exactly the sums the live process served.
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
