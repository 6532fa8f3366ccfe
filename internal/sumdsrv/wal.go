package sumdsrv

// Durability wiring: the glue between the HTTP surface and internal/wal.
//
// Every state-mutating request is journaled and committed before its 200
// is written, so "acknowledged" implies "recoverable". The two kinds of
// mutation meet the journal in opposite orders:
//
//   - Raw value batches (/v1/add, /v1/sub) cannot fail validation once
//     decoded, so the batcher's flush callback journals each flush group
//     in one commit — the group commit doubles as a group fsync — and
//     applies the group only if that commit succeeded. A failed commit
//     leaves nothing in the log and nothing applied, so live state and
//     replay agree.
//   - Partial/envelope pushes validate inside the accumulator merge, so
//     they apply first (keeping garbage out of the log) and journal the
//     already-accepted blob second.
//
// Both orders preserve the contract: an acknowledged mutation is in the
// log; an unacknowledged one may land on either side of a crash.
//
// applyMu serializes mutations against whole-state captures: every
// journal+apply pair holds it shared, while reset and snapshot capture
// hold it exclusively, so a snapshot is a clean cut of the history —
// everything journaled before the snapshot's base segment is inside it,
// everything after replays on top.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"parsum/internal/batch"
	"parsum/internal/keyed"
	"parsum/internal/wal"
)

// maxIdemToken bounds the Idempotency-Key header; longer tokens are
// rejected at the network edge (the journal's own token bound is higher,
// so an accepted token always round-trips through recovery).
const maxIdemToken = 256

// tokenWindow is the bounded idempotency-dedup window: the most recent
// cap tokens from acknowledged partial pushes. A retried push whose
// token is still in the window is answered 200 without re-merging, so a
// client that lost a response cannot double-apply a partial. Tokens ride
// the journal and snapshots, so the window survives recovery, and they
// deliberately survive /v1/reset: a pre-reset push retried after the
// reset must not re-apply state the reset wiped.
type tokenWindow struct {
	mu   sync.Mutex
	cap  int
	set  map[string]struct{}
	fifo []string // oldest first
}

func newTokenWindow(capacity int) *tokenWindow {
	return &tokenWindow{cap: capacity, set: make(map[string]struct{}, capacity)}
}

// reserve claims tok, evicting the oldest entry when full. It reports
// false when tok is already in the window (a duplicate).
func (t *tokenWindow) reserve(tok string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.set[tok]; dup {
		return false
	}
	if len(t.fifo) >= t.cap {
		old := t.fifo[0]
		t.fifo = t.fifo[1:]
		delete(t.set, old)
	}
	t.set[tok] = struct{}{}
	t.fifo = append(t.fifo, tok)
	return true
}

// release drops a reservation made for a push that then failed, so a
// corrected retry with the same token is not treated as a duplicate.
func (t *tokenWindow) release(tok string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.set[tok]; !ok {
		return
	}
	delete(t.set, tok)
	for i := len(t.fifo) - 1; i >= 0; i-- { // newest first: releases undo fresh reservations
		if t.fifo[i] == tok {
			t.fifo = append(t.fifo[:i], t.fifo[i+1:]...)
			break
		}
	}
}

// snapshot copies the window, oldest first, for inclusion in a WAL
// snapshot.
func (t *tokenWindow) snapshot() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.fifo))
	copy(out, t.fifo)
	return out
}

// load seeds the window from a recovered snapshot (oldest first).
func (t *tokenWindow) load(toks []string) {
	for _, tok := range toks {
		t.reserve(tok)
	}
}

// WALStats is the journal's health and recovery report inside
// StatsResponse (WAL-enabled servers only). The counter fields are
// monotone over the process lifetime, like every other stats counter.
type WALStats struct {
	Fsync     string `json:"fsync"`
	Records   int64  `json:"records"`
	Bytes     int64  `json:"bytes"`
	Commits   int64  `json:"commits"`
	Fsyncs    int64  `json:"fsyncs"`
	Rotations int64  `json:"rotations"`
	Snapshots int64  `json:"snapshots"`
	Errors    int64  `json:"errors"`
	Segments  int64  `json:"segments"`
	LastError string `json:"last_error,omitempty"`

	Recovery WALRecovery `json:"recovery"`
}

// WALRecovery describes what Open found when this process started.
type WALRecovery struct {
	SnapshotLoaded bool  `json:"snapshot_loaded"`
	Segments       int   `json:"segments"`
	Records        int   `json:"records"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	Torn           bool  `json:"torn"`
}

// mergedResponse is the POST /v1/partial and /v1/keyed/partial payload.
// Duplicate marks a retry answered from the idempotency window: the
// original push is already applied, nothing was merged again.
type mergedResponse struct {
	Merged    int  `json:"merged"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// reserveIdem claims the request's Idempotency-Key token. ok=false means
// the response has already been written — either a 400 (over-long token)
// or the duplicate short-circuit. The empty token means "no idempotency
// requested" and is never deduplicated.
func (s *Server) reserveIdem(w http.ResponseWriter, tok string) (string, bool) {
	if tok == "" {
		return "", true
	}
	if len(tok) > maxIdemToken {
		writeError(w, http.StatusBadRequest, fmt.Errorf("idempotency token length %d exceeds limit %d", len(tok), maxIdemToken))
		return "", false
	}
	if s.tokens != nil && !s.tokens.reserve(tok) {
		s.st.bump(&s.st.deduped)
		writeJSON(w, http.StatusOK, mergedResponse{Merged: 0, Duplicate: true})
		return "", false
	}
	return tok, true
}

// releaseIdem undoes a reservation after the push it covered failed.
func (s *Server) releaseIdem(tok string) {
	if tok != "" && s.tokens != nil {
		s.tokens.release(tok)
	}
}

// journalBlob appends one already-applied blob record and commits. The
// caller holds applyMu (shared). A nil error means the record is durable
// per the fsync policy.
func (s *Server) journalBlob(t wal.Type, tok string, blob []byte) error {
	if s.wal == nil {
		return nil
	}
	s.wal.AppendBlob(t, tok, blob)
	if err := s.wal.Commit(); err != nil {
		return fmt.Errorf("merged but journal commit failed: %w", err)
	}
	return nil
}

// noteMutations advances the snapshot trigger counter.
func (s *Server) noteMutations(n int64) {
	if s.wal != nil {
		s.walSince.Add(n)
	}
}

// maxLiveLogBytes bounds the journal that recovery replays on top of the
// newest snapshot: once the log since the last snapshot passes it, the
// next mutation writes a snapshot whatever WALSnapshotEvery says.
// Recovery holds every replayed record in memory and the segments hold
// disk, so a log left to grow under sustained ingest would in time fill
// the disk and make a restart run out of memory. A variable so tests can
// lower it.
var maxLiveLogBytes int64 = 1 << 30

// snapshotDue reports whether WALSnapshotEvery mutations or
// maxLiveLogBytes of journal accumulated since the last snapshot.
func (s *Server) snapshotDue() bool {
	return (s.snapEvery > 0 && s.walSince.Load() >= s.snapEvery) || s.wal.LiveBytes() >= maxLiveLogBytes
}

// maybeSnapshot writes a WAL snapshot when one is due. It takes applyMu
// exclusively, so the captured state is a clean cut; call it only from
// request goroutines that hold no locks (never from inside a flush,
// which runs under applyMu shared).
func (s *Server) maybeSnapshot() {
	if s.wal == nil || !s.snapshotDue() {
		return
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if !s.snapshotDue() { // lost the race to another snapshotter
		return
	}
	snap, err := s.captureState()
	if err != nil {
		return // dense state always encodes; skip this snapshot if not
	}
	if err := s.wal.WriteSnapshot(snap); err != nil {
		return // counted in the journal's error ledger
	}
	s.walSince.Store(0)
}

// captureState serializes the full service state. Callers hold applyMu
// exclusively.
func (s *Server) captureState() (*wal.Snapshot, error) {
	global, err := s.sh.SnapshotBytes()
	if err != nil {
		return nil, err
	}
	keyedBlob, err := s.keyed.ExportAll()
	if err != nil {
		return nil, err
	}
	snap := &wal.Snapshot{Global: global, Keyed: keyedBlob}
	if s.tokens != nil {
		snap.Tokens = s.tokens.snapshot()
	}
	return snap, nil
}

// recover seeds the server from what wal.Open reconstructed: snapshot
// first, then the journaled records in order. Replay errors are
// construction errors — a record that does not decode (for instance a
// partial naming an engine other than dense) means the directory is not
// this service's, and silently dropping records would break the
// durability contract.
func (s *Server) recover(rec *wal.Recovered) error {
	if snap := rec.Snapshot; snap != nil {
		if len(snap.Global) > 0 {
			if err := s.sh.MergeBytes(snap.Global); err != nil {
				return fmt.Errorf("sumd: wal snapshot global state: %w", err)
			}
		}
		if len(snap.Keyed) > 0 {
			if _, err := s.keyed.ImportMerge(snap.Keyed); err != nil {
				return fmt.Errorf("sumd: wal snapshot keyed state: %w", err)
			}
		}
		if s.tokens != nil {
			s.tokens.load(snap.Tokens)
		}
	}
	for i, r := range rec.Records {
		if err := s.applyRecord(r); err != nil {
			return fmt.Errorf("sumd: wal replay record %d (%s): %w", i, r.Type, err)
		}
	}
	s.recovery = WALRecovery{
		SnapshotLoaded: rec.Stats.SnapshotLoaded,
		Segments:       rec.Stats.Segments,
		Records:        rec.Stats.Records,
		TruncatedBytes: rec.Stats.TruncatedBytes,
		Torn:           rec.Stats.Torn,
	}
	return nil
}

// applyRecord replays one journaled mutation during recovery.
func (s *Server) applyRecord(r wal.Record) error {
	switch r.Type {
	case wal.RecAdd:
		s.sh.AddBatch(r.Values)
	case wal.RecSub:
		s.sh.SubBatch(r.Values)
	case wal.RecKeyedAdd, wal.RecKeyedSub:
		if err := checkRecKey(r.Key); err != nil {
			return err
		}
		if r.Type == wal.RecKeyedSub {
			s.keyed.Sub(r.Key, r.Values)
		} else {
			s.keyed.Add(r.Key, r.Values)
		}
	case wal.RecPartial:
		if err := s.sh.MergeBytes(r.Blob); err != nil {
			return err
		}
		s.reserveReplayed(r.Token)
	case wal.RecKeyedEnvelope:
		if _, err := s.keyed.ImportMerge(r.Blob); err != nil {
			return err
		}
		s.reserveReplayed(r.Token)
	case wal.RecKeyedJSON:
		var req KeyedPartialsRequest
		if err := json.Unmarshal(r.Blob, &req); err != nil {
			return err
		}
		if err := s.keyed.MergeKeyPartials(req.Partials); err != nil {
			return err
		}
		s.reserveReplayed(r.Token)
	case wal.RecReset:
		s.sh.Reset()
		s.keyed.Reset()
	default:
		return fmt.Errorf("unknown record type %d", r.Type)
	}
	return nil
}

func (s *Server) reserveReplayed(tok string) {
	if tok != "" && s.tokens != nil {
		s.tokens.reserve(tok)
	}
}

func checkRecKey(key string) error {
	if key == "" {
		return fmt.Errorf("keyed record with empty key")
	}
	if len(key) > keyed.MaxKeyLen {
		return fmt.Errorf("keyed record key length %d exceeds limit %d", len(key), keyed.MaxKeyLen)
	}
	return nil
}

// flush is the batcher's sink: it journals one flush group and applies
// it. Holding applyMu shared, so snapshots cut between flushes and never
// through one, it journals every request of the group in one commit and
// applies the group only if the commit succeeded — through applyRecord,
// the same code recovery replays the records with. Its error reaches
// every request of the group, each answered 500 with state untouched.
func (s *Server) flush(group []batch.Request) error {
	recs := make([]wal.Record, len(group))
	for i, r := range group {
		t := wal.RecAdd
		switch {
		case r.Key != "" && r.Sub:
			t = wal.RecKeyedSub
		case r.Key != "":
			t = wal.RecKeyedAdd
		case r.Sub:
			t = wal.RecSub
		}
		recs[i] = wal.Record{Type: t, Key: r.Key, Values: r.Values}
	}
	s.applyMu.RLock()
	defer s.applyMu.RUnlock()
	if s.wal != nil {
		if err := s.wal.Journal(recs...); err != nil {
			return fmt.Errorf("journaling batch: %w", err)
		}
	}
	for _, rec := range recs {
		// Value records fail only on a bad key, and the batcher admits
		// only valid keys.
		_ = s.applyRecord(rec)
	}
	s.noteMutations(int64(len(recs)))
	return nil
}
