package sumdsrv

// Durability wiring: the glue between the HTTP surface and internal/wal.
//
// Every mutation takes one path, journalThenApply: decoded and validated
// first, it is journaled and committed, and applied only if the commit
// succeeded. Raw value batches (/v1/add, /v1/sub) arrive there from the
// batcher's flush callback, one commit per flush group (the group commit
// doubles as a group fsync); a partial or keyed push (/v1/partial,
// /v1/keyed/partial) arrives from its handler as one record; a reset
// arrives from its handler under applyMu held exclusively. A failed
// commit leaves nothing in the log and nothing applied, and the request
// is answered 500: live state and replay agree, and a 500 always means
// nothing happened. An acknowledged mutation is in the log; an
// unacknowledged one may land on either side of a crash.
//
// applyMu serializes mutations against whole-state captures: every
// journal+apply pair holds it shared, while reset and snapshot capture
// hold it exclusively, so a snapshot is a clean cut of the history —
// everything journaled before the snapshot's base segment is inside it,
// everything after replays on top.

import (
	"fmt"
	"net/http"
	"sync"

	"parsum/internal/batch"
	"parsum/internal/core"
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
// client that lost a response cannot double-apply a partial. Only a
// push whose commit succeeded enters the window. Tokens ride the journal
// and snapshots, so the window survives recovery, and they deliberately
// survive /v1/reset: a pre-reset push retried after the reset must not
// re-apply state the reset wiped. A nil window dedups nothing.
type tokenWindow struct {
	// mu is held across a tokened push's check, journal, apply and
	// insert, so two concurrent pushes of one token apply it once.
	mu   sync.Mutex
	cap  int
	set  map[string]struct{}
	fifo []string // oldest first
}

func newTokenWindow(capacity int) *tokenWindow {
	return &tokenWindow{cap: capacity, set: make(map[string]struct{}, capacity)}
}

// addLocked inserts tok, evicting the oldest entry when full; a token
// already present stays where it is. Caller holds t.mu.
func (t *tokenWindow) addLocked(tok string) {
	if _, dup := t.set[tok]; dup {
		return
	}
	if len(t.fifo) >= t.cap {
		old := t.fifo[0]
		t.fifo = t.fifo[1:]
		delete(t.set, old)
	}
	t.set[tok] = struct{}{}
	t.fifo = append(t.fifo, tok)
}

// snapshot copies the window, oldest first, for inclusion in a WAL
// snapshot.
func (t *tokenWindow) snapshot() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.fifo))
	copy(out, t.fifo)
	return out
}

// load adds recovered tokens, oldest first.
func (t *tokenWindow) load(toks ...string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tok := range toks {
		t.addLocked(tok)
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

// journalThenApply is the one path by which a mutation reaches the
// journal and the state: it journals recs in one commit and runs apply
// only if the commit succeeded, so an error leaves both the log and the
// state untouched. A push's idempotency token (tok, "" for none) is
// checked and, once the push is applied, inserted in the same critical
// section: a duplicate (dup true) journals and applies nothing, and a
// push whose commit fails never enters the window. Callers hold applyMu
// — shared for ingest and pushes, exclusively for a reset.
func (s *Server) journalThenApply(tok string, recs []wal.Record, apply func()) (dup bool, err error) {
	idem := tok != "" && s.tokens != nil
	if idem {
		s.tokens.mu.Lock()
		defer s.tokens.mu.Unlock()
		if _, dup := s.tokens.set[tok]; dup {
			return true, nil
		}
	}
	if s.wal != nil {
		if err := s.wal.Journal(recs...); err != nil {
			return false, fmt.Errorf("journal commit failed, nothing applied: %w", err)
		}
	}
	apply()
	if idem {
		s.tokens.addLocked(tok)
	}
	s.noteMutations(int64(len(recs)))
	return false, nil
}

// push serves one partial or keyed push whose body is rec's blob: it
// checks the Idempotency-Key, decodes and validates the whole body, then
// journals and applies it. It returns how many partials it merged, or
// false after writing the 400, duplicate or 500 reply itself.
func (s *Server) push(w http.ResponseWriter, r *http.Request, rec wal.Record) (int, bool) {
	rec.Token = r.Header.Get("Idempotency-Key")
	if len(rec.Token) > maxIdemToken {
		writeError(w, http.StatusBadRequest, fmt.Errorf("idempotency token length %d exceeds limit %d", len(rec.Token), maxIdemToken))
		return 0, false
	}
	apply, n, err := s.prepare(rec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return 0, false
	}
	s.applyMu.RLock()
	dup, err := s.journalThenApply(rec.Token, []wal.Record{rec}, apply)
	s.applyMu.RUnlock()
	switch {
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return 0, false
	case dup:
		s.st.bump(&s.st.deduped)
		writeJSON(w, http.StatusOK, mergedResponse{Merged: 0, Duplicate: true})
		return 0, false
	}
	return n, true
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
	return &wal.Snapshot{Global: global, Keyed: keyedBlob, Tokens: s.tokens.snapshot()}, nil
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
		s.tokens.load(snap.Tokens...)
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

// applyRecord applies one journaled mutation, its token included —
// the code recovery replays the journal with and the flush applies a
// group with. Value records have nothing to decode and apply directly.
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
	default:
		apply, _, err := s.prepare(r)
		if err != nil {
			return err
		}
		apply()
		if r.Token != "" {
			s.tokens.load(r.Token)
		}
	}
	return nil
}

// prepare decodes and validates a blob or reset record without touching
// state and returns the function that applies it, with the number of
// partials it carries.
func (s *Server) prepare(r wal.Record) (apply func(), n int, err error) {
	switch r.Type {
	case wal.RecPartial:
		acc, err := core.UnmarshalDensePartial(r.Blob)
		if err != nil {
			return nil, 0, err
		}
		return func() { s.sh.MergeDense(acc) }, 1, nil
	case wal.RecKeyedEnvelope, wal.RecKeyedJSON:
		var d keyed.Decoded
		if r.Type == wal.RecKeyedEnvelope {
			d, err = s.keyed.DecodeEnvelope(r.Blob)
		} else {
			d, err = s.decodeKeyedJSON(r.Blob)
		}
		if err != nil {
			return nil, 0, err
		}
		return func() { s.keyed.MergeDecoded(d) }, d.Len(), nil
	case wal.RecReset:
		return func() {
			s.sh.Reset()
			s.keyed.Reset()
		}, 0, nil
	}
	return nil, 0, fmt.Errorf("unknown record type %d", r.Type)
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

// flush is the batcher's sink: it journals one flush group in one
// commit and applies it through applyRecord. Holding applyMu shared, it
// lets snapshots cut between flushes and never through one. Its error
// reaches every request of the group, each answered 500 with state
// untouched.
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
	_, err := s.journalThenApply("", recs, func() {
		for _, rec := range recs {
			// Value records fail only on a bad key, and the batcher
			// admits only valid keys.
			_ = s.applyRecord(rec)
		}
	})
	return err
}
