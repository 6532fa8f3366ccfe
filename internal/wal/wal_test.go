package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func mustOpen(t *testing.T, opt Options) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(opt)
	if err != nil {
		t.Fatalf("Open(%+v): %v", opt, err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec
}

func sampleRecords() []Record {
	return []Record{
		{Type: RecAdd, Values: []float64{1, -2.5, math.Inf(1), math.Copysign(0, -1)}},
		{Type: RecSub, Values: []float64{math.NaN(), 1e300}},
		{Type: RecKeyedAdd, Key: "eu-west", Values: []float64{3.25}},
		{Type: RecKeyedSub, Key: "ap-south", Values: nil},
		{Type: RecPartial, Token: "tok-1", Blob: []byte{0xC7, 1, 2, 3}},
		{Type: RecKeyedEnvelope, Token: "", Blob: []byte{0xC9, 9}},
		{Type: RecReset},
	}
}

func appendRecord(l *Log, r Record) {
	switch r.Type {
	case RecAdd:
		l.AppendBatch(r.Values, false)
	case RecSub:
		l.AppendBatch(r.Values, true)
	case RecKeyedAdd:
		l.AppendKeyed(r.Key, r.Values, false)
	case RecKeyedSub:
		l.AppendKeyed(r.Key, r.Values, true)
	case RecPartial, RecKeyedEnvelope:
		l.AppendBlob(r.Type, r.Token, r.Blob)
	case RecReset:
		l.AppendReset()
	}
}

// recordsEqual compares bit patterns, not float values: NaN != NaN under
// ==, but the journal must preserve the exact bits.
func recordsEqual(a, b Record) bool {
	if a.Type != b.Type || a.Key != b.Key || a.Token != b.Token || !bytes.Equal(a.Blob, b.Blob) {
		return false
	}
	if len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

func checkRecovered(t *testing.T, got []Record, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		if w.Values == nil {
			w.Values = []float64{}
		}
		g := got[i]
		if g.Values == nil {
			g.Values = []float64{}
		}
		if !recordsEqual(g, w) {
			t.Errorf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestRoundTripAllRecordTypes(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, Options{Dir: dir, Fsync: PolicyAlways})
	if rec.Stats.Records != 0 || rec.Stats.SnapshotLoaded {
		t.Fatalf("fresh dir recovered %+v", rec.Stats)
	}
	want := sampleRecords()
	for _, r := range want {
		appendRecord(l, r)
		if err := l.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	m := l.Metrics()
	if m.Records != int64(len(want)) || m.Commits != int64(len(want)) || m.Fsyncs < int64(len(want)) {
		t.Fatalf("metrics after %d records: %+v", len(want), m)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec2 := mustOpen(t, Options{Dir: dir})
	checkRecovered(t, rec2.Records, want)
	if rec2.Stats.Torn || rec2.Stats.TruncatedBytes != 0 {
		t.Fatalf("clean log reported torn recovery: %+v", rec2.Stats)
	}
}

func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	l.AppendBatch([]float64{1}, false)
	l.AppendKeyed("k", []float64{2}, false)
	l.AppendBatch([]float64{3}, true)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if m := l.Metrics(); m.Commits != 1 || m.Records != 3 {
		t.Fatalf("group commit metrics: %+v", m)
	}
	l.Close()
	_, rec := mustOpen(t, Options{Dir: dir})
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d records, want 3", len(rec.Records))
	}
}

// TestTornTailTruncates drives every prefix: for a log of n records the
// segment is truncated at each byte boundary; recovery must replay the
// longest valid frame prefix and never error, and appending after a
// torn recovery must produce a clean log again.
func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	want := sampleRecords()
	var boundaries []int64
	seg := filepath.Join(dir, segName(1))
	for _, r := range want {
		appendRecord(l, r)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, st.Size())
	}
	l.Close()
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	for i, b := range boundaries {
		// Exactly at the frame boundary: records 0..i survive.
		tdir := t.TempDir()
		writeSeg(t, tdir, 1, full[:b])
		_, rec := mustOpen(t, Options{Dir: tdir})
		checkRecovered(t, rec.Records, want[:i+1])

		// Mid-frame (3 bytes short): the torn record is dropped.
		tdir = t.TempDir()
		writeSeg(t, tdir, 1, full[:b-3])
		l2, rec2 := mustOpen(t, Options{Dir: tdir})
		checkRecovered(t, rec2.Records, want[:i])
		if !rec2.Stats.Torn || rec2.Stats.TruncatedBytes == 0 {
			t.Fatalf("boundary %d: torn tail not reported: %+v", i, rec2.Stats)
		}
		// The tail was physically truncated: appending and recovering
		// again must yield prefix + the new record, nothing else.
		l2.AppendBatch([]float64{42}, false)
		if err := l2.Commit(); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		_, rec3 := mustOpen(t, Options{Dir: tdir})
		checkRecovered(t, rec3.Records, append(append([]Record{}, want[:i]...), Record{Type: RecAdd, Values: []float64{42}}))
	}
}

func writeSeg(t *testing.T, dir string, idx int64, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, segName(idx)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionMidHistory flips a byte in the FIRST of two segments:
// replay must stop at the corrupt frame and drop the later segment —
// the valid prefix is the log.
func TestCorruptionMidHistory(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff, SegBytes: 1})
	// SegBytes 1 forces a rotation at every commit: record i lands in
	// segment i+1.
	for i := 0; i < 4; i++ {
		l.AppendBatch([]float64{float64(i)}, false)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Corrupt segment 2 (the second record).
	seg2 := filepath.Join(dir, segName(2))
	data, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, Options{Dir: dir})
	checkRecovered(t, rec.Records, []Record{{Type: RecAdd, Values: []float64{0}}})
	if !rec.Stats.Torn {
		t.Fatalf("mid-history corruption not reported: %+v", rec.Stats)
	}
	// The segments after the corruption are gone.
	for i := int64(3); i <= 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, segName(i))); !os.IsNotExist(err) {
			t.Errorf("segment %d survived a mid-history truncation", i)
		}
	}
}

func TestRotationAndReplayAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff, SegBytes: 64})
	var want []Record
	for i := 0; i < 50; i++ {
		r := Record{Type: RecAdd, Values: []float64{float64(i)}}
		want = append(want, r)
		appendRecord(l, r)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if m := l.Metrics(); m.Rotations == 0 || m.Segments < 2 {
		t.Fatalf("no rotation at SegBytes=64: %+v", m)
	}
	l.Close()
	_, rec := mustOpen(t, Options{Dir: dir})
	checkRecovered(t, rec.Records, want)
	if rec.Stats.Segments < 2 {
		t.Fatalf("replay did not cross segments: %+v", rec.Stats)
	}
}

func TestSnapshotTruncatesReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	l.AppendBatch([]float64{1, 2}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Global: []byte{0xC7, 9, 9}, Keyed: []byte{0xC9}, Tokens: []string{"a", "b"}}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	l.AppendBatch([]float64{3}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if m := l.Metrics(); m.Snapshots != 1 {
		t.Fatalf("snapshot metrics: %+v", m)
	}
	l.Close()

	_, rec := mustOpen(t, Options{Dir: dir})
	if !rec.Stats.SnapshotLoaded {
		t.Fatal("snapshot not loaded")
	}
	if !reflect.DeepEqual(rec.Snapshot, snap) {
		t.Fatalf("snapshot = %+v, want %+v", rec.Snapshot, snap)
	}
	checkRecovered(t, rec.Records, []Record{{Type: RecAdd, Values: []float64{3}}})
	// The pre-snapshot segment is deleted.
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Error("pre-snapshot segment survived")
	}
}

// TestCorruptSnapshotFallsBack verifies that a damaged snapshot file is
// ignored: with no older snapshot, recovery replays the full log.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	l.AppendBatch([]float64{7}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// A snapshot claiming base 9 that fails its CRC must not hide the
	// segments (nor make recovery error).
	if err := os.WriteFile(filepath.Join(dir, snapName(9)), []byte("PSWSgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, Options{Dir: dir})
	if rec.Stats.SnapshotLoaded {
		t.Fatal("corrupt snapshot loaded")
	}
	checkRecovered(t, rec.Records, []Record{{Type: RecAdd, Values: []float64{7}}})
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"": PolicyAlways, "always": PolicyAlways,
		"interval": PolicyInterval, "off": PolicyOff,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
}

func TestIntervalPolicyFsyncsInBackground(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyInterval, Interval: time.Millisecond})
	l.AppendBatch([]float64{1}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Metrics().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never ran")
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
}

// TestAppendCommitHotPathZeroAlloc is the journal hot-path guard: once
// the pending buffer is warm, journaling a batch and committing it
// (fsync off) must not allocate.
func TestAppendCommitHotPathZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	xs := make([]float64, 512)
	for i := range xs {
		xs[i] = float64(i) * 1.5
	}
	// Warm the pending buffer.
	for i := 0; i < 4; i++ {
		l.AppendBatch(xs, false)
		l.AppendKeyed("warm-key", xs[:8], true)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		l.AppendBatch(xs, false)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendBatch+Commit allocates %.1f times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		l.AppendKeyed("warm-key", xs[:8], false)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendKeyed+Commit allocates %.1f times per op, want 0", n)
	}
}

func TestCommitAfterCloseFails(t *testing.T) {
	l, _ := mustOpen(t, Options{Dir: t.TempDir()})
	l.Close()
	l.AppendBatch([]float64{1}, false)
	if err := l.Commit(); err == nil {
		t.Fatal("Commit after Close succeeded")
	}
}

func TestTypeAndPolicyStrings(t *testing.T) {
	want := map[Type]string{
		RecAdd: "add", RecSub: "sub",
		RecKeyedAdd: "keyed-add", RecKeyedSub: "keyed-sub",
		RecPartial: "partial", RecKeyedEnvelope: "keyed-envelope",
		RecReset: "reset", RecKeyedJSON: "keyed-json",
		Type(200): "wal.Type(200)",
	}
	for typ, s := range want {
		if got := typ.String(); got != s {
			t.Errorf("Type(%d).String() = %q, want %q", uint8(typ), got, s)
		}
	}
	pols := map[Policy]string{
		PolicyAlways: "always", PolicyInterval: "interval", PolicyOff: "off",
		Policy(9): "wal.Policy(9)",
	}
	for pol, s := range pols {
		if got := pol.String(); got != s {
			t.Errorf("Policy(%d).String() = %q, want %q", int(pol), got, s)
		}
	}
}

// A snapshot with a valid header but flipped payload byte must fail its
// CRC and be skipped in favor of a full replay — the mid-file twin of
// TestCorruptSnapshotFallsBack's truncated-header case.
func TestSnapshotCRCMismatchFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	l.AppendBatch([]float64{1, 2}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(&Snapshot{Global: []byte("g"), Tokens: []string{"tok"}}); err != nil {
		t.Fatal(err)
	}
	l.AppendBatch([]float64{3}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var snapPath string
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) == snapSuffix {
			snapPath = filepath.Join(dir, e.Name())
		}
	}
	if snapPath == "" {
		t.Fatal("no snapshot written")
	}
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(snapPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, Options{Dir: dir})
	if rec.Stats.SnapshotLoaded {
		t.Fatal("CRC-broken snapshot loaded")
	}
	// The pre-snapshot segment was truncated away when the snapshot was
	// written, so a fallback replay sees only the tail records. Losing a
	// snapshot to corruption after truncation is detectable, not
	// silently wrong: recovery reports no snapshot.
	checkRecovered(t, rec.Records, []Record{{Type: RecAdd, Values: []float64{3}}})
}

// TestLiveBytesTracksReplayableLog pins LiveBytes: it counts every byte
// committed since the newest snapshot, drops to zero at a snapshot, and
// after a restart equals the bytes recovery replayed.
func TestLiveBytesTracksReplayableLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	xs := make([]float64, 100)
	l.AppendBatch(xs, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := l.LiveBytes(), l.Metrics().Bytes; got != want || got == 0 {
		t.Fatalf("LiveBytes = %d, want %d", got, want)
	}
	if err := l.WriteSnapshot(&Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if got := l.LiveBytes(); got != 0 {
		t.Fatalf("LiveBytes after snapshot = %d, want 0", got)
	}
	l.AppendBatch(xs, true)
	l.AppendKeyed("k", xs[:3], false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	want := l.LiveBytes()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	if rec.Stats.Records != 2 || l2.LiveBytes() != want {
		t.Fatalf("reopened: %d records, LiveBytes %d; want 2 and %d", rec.Stats.Records, l2.LiveBytes(), want)
	}
}

// TestFailedJournalLeavesNoFrames blocks a rotation (a directory sits
// where the next segment file goes) so one Journal fails, then heals the
// directory. The failed group must not reach the log — not through the
// next commit, not on replay — while frames another caller buffered
// before it stay pending and land with that caller's Commit.
func TestFailedJournalLeavesNoFrames(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyAlways, SegBytes: 1})
	if err := l.Journal(Record{Type: RecAdd, Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	block := filepath.Join(dir, segName(2))
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	l.AppendKeyed("other", []float64{2}, false) // another caller's pending frame
	err := l.Journal(
		Record{Type: RecAdd, Values: []float64{10}},
		Record{Type: RecKeyedSub, Key: "k", Values: []float64{20}},
	)
	if err == nil {
		t.Fatal("Journal succeeded with the next segment blocked")
	}
	if bad, _ := l.Degraded(); !bad {
		t.Fatal("failed Journal did not degrade the log")
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit after healing: %v", err)
	}
	if err := l.Journal(Record{Type: RecAdd, Values: []float64{100}}); err != nil {
		t.Fatal(err)
	}
	if m := l.Metrics(); m.Records != 3 {
		t.Fatalf("journaled %d records, want 3", m.Records)
	}
	l.Close()
	_, rec := mustOpen(t, Options{Dir: dir})
	checkRecovered(t, rec.Records, []Record{
		{Type: RecAdd, Values: []float64{1}},
		{Type: RecKeyedAdd, Key: "other", Values: []float64{2}},
		{Type: RecAdd, Values: []float64{100}},
	})
}

// TestFailedWriteDropsTheJournalGroup swaps the segment handle for a
// read-only one, so the write itself fails. The failed Journal group
// must never reach the log, while a frame buffered for Commit — a record
// its caller already applied — stays pending and lands with the next
// successful commit.
func TestFailedWriteDropsTheJournalGroup(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	l.AppendBatch([]float64{1}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	l.mu.Lock()
	rw := l.f
	l.f = ro
	l.mu.Unlock()
	if err := l.Journal(Record{Type: RecAdd, Values: []float64{10}}); err == nil {
		t.Fatal("Journal through a read-only handle succeeded")
	}
	l.AppendBatch([]float64{20}, false)
	if err := l.Commit(); err == nil {
		t.Fatal("Commit through a read-only handle succeeded")
	}
	l.mu.Lock()
	l.f = rw
	l.mu.Unlock()
	l.AppendBatch([]float64{100}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, rec := mustOpen(t, Options{Dir: dir})
	checkRecovered(t, rec.Records, []Record{
		{Type: RecAdd, Values: []float64{1}},
		{Type: RecAdd, Values: []float64{20}},
		{Type: RecAdd, Values: []float64{100}},
	})
}
