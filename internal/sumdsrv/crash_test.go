// Crash-injection matrix for the durability contract: every acked
// mutation must survive a process kill at any point at or after the ack.
// The harness snapshots the WAL directory's bytes after each acked
// operation — exactly what a kill -9 at that instant would leave on disk
// (fsync=off keeps the page cache coherent with what a same-machine
// restart reads) — then recovers a fresh server from each snapshot and
// compares the served bits against an exact oracle over the acked
// prefix. A torn variant shaves bytes off the newest segment to land
// mid-frame: recovery must truncate the torn frame and reproduce the
// previous prefix exactly, never error and never invent values.
package sumdsrv_test

import (
	"context"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parsum"
	"parsum/internal/batch"
	"parsum/internal/gen"
	"parsum/internal/sumdclient"
	"parsum/internal/sumdsrv"
)

// walBytes reads every file in the WAL directory into memory — the
// simulated on-disk state at a kill point.
func walBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = data
	}
	return state
}

// restoreWAL materializes a captured directory state into a fresh dir.
func restoreWAL(t *testing.T, state map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range state {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// shaveTail cuts n bytes off the newest segment in state, simulating a
// kill mid-frame-write. Returns false when no segment has n bytes to
// lose.
func shaveTail(state map[string][]byte, n int) bool {
	newest := ""
	for name := range state {
		if strings.HasSuffix(name, ".seg") && name > newest {
			newest = name
		}
	}
	if newest == "" || len(state[newest]) < n {
		return false
	}
	state[newest] = state[newest][:len(state[newest])-n]
	return true
}

// crashOp is one acked mutation plus the oracle bits after it.
type crashOp struct {
	wantSum  uint64            // global sum bits after this op
	wantKeys map[string]uint64 // per-key sum bits after this op
}

func TestCrashRecoveryMatrix(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 240, Delta: 60, Seed: 401}).Slice()
	chunks := splitSlices(xs, 8)
	keys := []string{"alpha", "beta", "gamma"}

	for _, tc := range []struct {
		name  string
		keyed bool
	}{
		{"async-plain", false},
		{"async-keyed", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := sumdsrv.Options{
				Shards:   2,
				QueueLen: 16,
				WALDir:   dir,
				WALFsync: "off",
			}
			if tc.keyed {
				opt.KeyPartitions = 2
			}
			c, _ := startService(t, opt)
			ctx := context.Background()

			// Drive the acked sequence, capturing the WAL bytes and the
			// oracle after every ack. Plain cells alternate add/sub so
			// retraction frames are replayed too; keyed cells rotate keys.
			oracle, err := parsum.NewAccumulatorEngine("dense")
			if err != nil {
				t.Fatal(err)
			}
			keyOracle := map[string]*parsum.Accumulator{}
			var states []map[string][]byte
			var ops []crashOp
			for i, chunk := range chunks {
				if tc.keyed {
					key := keys[i%len(keys)]
					if err := c.AddKeyed(ctx, key, chunk); err != nil {
						t.Fatal(err)
					}
					if keyOracle[key] == nil {
						keyOracle[key], _ = parsum.NewAccumulatorEngine("dense")
					}
					keyOracle[key].AddSlice(chunk)
				} else if i%3 == 2 {
					if err := c.SubBatch(ctx, chunk); err != nil {
						t.Fatal(err)
					}
					oracle.SubSlice(chunk)
				} else {
					if err := c.AddBatch(ctx, chunk); err != nil {
						t.Fatal(err)
					}
					oracle.AddSlice(chunk)
				}
				op := crashOp{wantSum: math.Float64bits(oracle.Round())}
				if tc.keyed {
					op.wantKeys = map[string]uint64{}
					for k, acc := range keyOracle {
						op.wantKeys[k] = math.Float64bits(acc.Round())
					}
				}
				states = append(states, walBytes(t, dir))
				ops = append(ops, op)
			}

			// Kill at every frame boundary: the state captured after ack i
			// must recover to exactly the prefix ops[0..i].
			for i, state := range states {
				verifyRecovered(t, restoreWAL(t, state), tc.keyed, ops[i], false)
			}

			// Kill mid-frame: shaving 3 bytes off the newest segment tears
			// the last frame, so recovery must land on the previous ack's
			// bits and report the torn tail. (Each acked op appends one
			// frame; no snapshots run in this test.)
			for i := 1; i < len(states); i++ {
				st := make(map[string][]byte, len(states[i]))
				for k, v := range states[i] {
					st[k] = append([]byte(nil), v...)
				}
				if !shaveTail(st, 3) {
					t.Fatalf("op %d: no segment bytes to shave", i)
				}
				verifyRecovered(t, restoreWAL(t, st), tc.keyed, ops[i-1], true)
			}
		})
	}
}

// verifyRecovered opens a fresh server on the recovered WAL directory
// and compares every served bit against the oracle for that prefix.
func verifyRecovered(t *testing.T, dir string, keyed bool, want crashOp, torn bool) {
	t.Helper()
	opt := sumdsrv.Options{Shards: 2, WALDir: dir, WALFsync: "off"}
	if keyed {
		opt.KeyPartitions = 2
	}
	srv, err := sumdsrv.New(opt)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	t.Cleanup(srv.Close)
	if torn && !srv.Recovery().Torn {
		t.Error("recovery did not report the torn tail")
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	c := sumdclient.New(hs.URL, hs.Client())
	ctx := context.Background()
	got, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != want.wantSum {
		t.Errorf("recovered sum %x, want %x", math.Float64bits(got), want.wantSum)
	}
	for key, bits := range want.wantKeys {
		kv, ok, err := c.SumKey(ctx, key)
		if err != nil || !ok {
			t.Fatalf("recovered SumKey(%q): ok=%t err=%v", key, ok, err)
		}
		if math.Float64bits(kv) != bits {
			t.Errorf("recovered key %q: %x, want %x", key, math.Float64bits(kv), bits)
		}
	}
}

// TestCountersMonotoneAcrossReset is the ledger contract: /v1/reset
// wipes the accumulated state but never the observability counters, so
// a scrape before the reset and a scrape after must still satisfy the
// CI monotonicity gate.
func TestCountersMonotoneAcrossReset(t *testing.T) {
	dir := t.TempDir()
	c, hs := startService(t, sumdsrv.Options{
		Shards: 2, KeyPartitions: 2, WALDir: dir, WALFsync: "off",
	})
	ctx := context.Background()
	xs := gen.New(gen.Config{Dist: gen.Random, N: 500, Delta: 100, Seed: 9}).Slice()
	if err := c.AddBatch(ctx, xs); err != nil {
		t.Fatal(err)
	}
	if err := c.AddKeyed(ctx, "k", xs[:10]); err != nil {
		t.Fatal(err)
	}
	before, err := batch.LintProm(scrape(t, hs.URL))
	if err != nil {
		t.Fatalf("pre-reset scrape failed lint: %v", err)
	}
	if err := c.Reset(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.AddBatch(ctx, xs[:3]); err != nil {
		t.Fatal(err)
	}
	after, err := batch.LintProm(scrape(t, hs.URL))
	if err != nil {
		t.Fatalf("post-reset scrape failed lint: %v", err)
	}
	if err := batch.CheckMonotone(before, after); err != nil {
		t.Fatalf("reset rewound a counter: %v", err)
	}
	// And the reset itself must be journaled: a restart on the same WAL
	// must come back empty-plus-the-post-reset-adds, not resurrect the
	// wiped values.
	verifyRecovered(t, restoreWAL(t, walBytes(t, dir)), false,
		crashOp{wantSum: math.Float64bits(parsum.Sum(xs[:3]))}, false)
}
