// Package wal is the durability layer behind sumd: an append-only,
// CRC32C-framed segment log that journals every state-mutating request
// before it is applied and acknowledged, plus periodic snapshots that
// bound replay.
//
// The design leans on the central property of the accumulator it
// protects: exact summation is a commutative group, so replaying the
// journaled multiset — in journal order, in any grouping — reproduces
// the pre-crash sums bit for bit. Durability therefore needs no
// physical byte-identity of state files, only the logical multiset of
// accepted mutations; the log records exactly that.
//
// # Layout
//
// A log directory holds numbered segment files and at most one live
// snapshot:
//
//	wal-0000000000000001.seg
//	wal-0000000000000002.seg      ← active (append) segment
//	snap-0000000000000002.snap    ← covers every segment below 2
//
// Records append to the active segment; when it exceeds Options.SegBytes
// the log rotates to the next index. A snapshot captures the full
// service state (global partial + keyed envelope + idempotency tokens),
// names the first segment index NOT covered, and lets every lower
// segment and older snapshot be deleted.
//
// # Recovery
//
// Open loads the newest valid snapshot, then replays segments from the
// snapshot's base index in order, frame by frame. The first bad frame —
// torn length, CRC mismatch, or undecodable payload — ends the log: the
// segment is truncated there, later segments are removed, and the valid
// prefix is returned for the caller to apply. This is exactly the
// contract a crash mid-append requires: an acknowledged mutation was
// durably framed before the ack, so it is in the prefix; an in-flight
// mutation may fall either side, which is the standard "unacked is
// unknown" durability semantics.
//
// # Fsync
//
// Commit durability is configurable: PolicyAlways fsyncs on every
// commit (each Journal group — sumd's ingest flush is the natural group
// fsync — and each Commit); PolicyInterval fsyncs in the background
// every Options.Interval; PolicyOff never fsyncs. Note that even
// PolicyOff survives process death (the OS holds the written pages); the
// policy only chooses exposure to machine death.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Policy selects when the log fsyncs the active segment.
type Policy int

const (
	// PolicyAlways fsyncs on every Commit — full single-request
	// durability; the safest and slowest.
	PolicyAlways Policy = iota
	// PolicyInterval fsyncs in the background every Options.Interval;
	// a machine crash can lose at most the last interval of acks.
	PolicyInterval
	// PolicyOff never fsyncs the segment files. Process crashes lose
	// nothing (the OS holds every committed write); machine crashes may.
	PolicyOff
)

func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyInterval:
		return "interval"
	case PolicyOff:
		return "off"
	}
	return fmt.Sprintf("wal.Policy(%d)", int(p))
}

// ParsePolicy maps the flag spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "always":
		return PolicyAlways, nil
	case "interval":
		return PolicyInterval, nil
	case "off":
		return PolicyOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

// Options configures Open. Dir is required; everything else has a
// usable default.
type Options struct {
	// Dir is the log directory; created if absent.
	Dir string
	// SegBytes is the segment rotation threshold: a Commit that finds
	// the active segment at or above it rotates first. 0 means 64 MiB.
	SegBytes int64
	// Fsync is the commit durability policy (see Policy).
	Fsync Policy
	// Interval is the background fsync period under PolicyInterval.
	// 0 means 100ms.
	Interval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegBytes <= 0 {
		o.SegBytes = 64 << 20
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	return o
}

// Metrics is a point-in-time copy of the log's counters, all
// monotonically non-decreasing over the process lifetime (Segments is
// the current segment-file count, a gauge).
type Metrics struct {
	Records   int64 // records journaled
	Bytes     int64 // frame bytes written (headers included)
	Commits   int64 // Commit calls that wrote
	Fsyncs    int64 // fsyncs issued (any path)
	Rotations int64 // segment rotations
	Snapshots int64 // snapshots written
	Errors    int64 // write/fsync/rotate/snapshot failures
	Segments  int64 // live segment files (gauge)
	LastError string
}

// RecoveryStats describes what Open found and replayed.
type RecoveryStats struct {
	SnapshotLoaded bool  // a valid snapshot seeded the state
	SnapshotSeg    int64 // its base segment index (first replayed)
	Segments       int   // segment files scanned
	Records        int   // records in the valid prefix
	TruncatedBytes int64 // torn-tail bytes dropped
	Torn           bool  // a bad frame ended the scan early
}

// Recovered is everything Open reconstructed: the snapshot to seed
// state from (nil when none), the journaled records after it, in
// order, and the scan statistics.
type Recovered struct {
	Snapshot *Snapshot
	Records  []Record
	Stats    RecoveryStats
}

// Log is the append side. Callers journal a mutation before they apply
// it: Journal appends and commits one group, and a nil return means the
// group is durable per the fsync policy. There is one failure rule: a
// failed commit leaves none of its frames in the log — not in a segment,
// not pending for a later commit — so a caller that then leaves its state
// untouched agrees with what recovery replays. All methods are safe for
// concurrent use.
type Log struct {
	opt Options

	mu       sync.Mutex
	f        *os.File
	seg      int64
	size     int64
	pend     []byte // encoded frames awaiting Commit
	pendN    int64
	live     atomic.Int64 // bytes recovery would replay; see LiveBytes
	dirty    bool         // written since last fsync
	degraded bool         // last durability operation failed; see Degraded
	stuck    error        // a failed commit's frames could not be removed; see undoWriteLocked
	closed   bool
	m        Metrics

	stop chan struct{}
	wg   sync.WaitGroup
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func segName(i int64) string  { return fmt.Sprintf("%s%016d%s", segPrefix, i, segSuffix) }
func snapName(i int64) string { return fmt.Sprintf("%s%016d%s", snapPrefix, i, snapSuffix) }

func parseIndex(name, prefix, suffix string) (int64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	i, err := strconv.ParseInt(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}

// Open recovers the log in opt.Dir (creating it when absent) and
// returns the append handle positioned after the last valid frame.
// Corruption is never an error from Open: the log is truncated to its
// longest valid prefix and the damage is reported in Recovered.Stats.
// Errors are reserved for real I/O failures and unreadable directories.
func Open(opt Options) (*Log, *Recovered, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, nil, errors.New("wal: no directory given")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", opt.Dir, err)
	}
	entries, err := os.ReadDir(opt.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: reading %s: %w", opt.Dir, err)
	}
	var segs, snaps []int64
	for _, e := range entries {
		if i, ok := parseIndex(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, i)
		}
		if i, ok := parseIndex(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, i)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	rec := &Recovered{}
	// Newest valid snapshot wins; invalid ones are skipped (and cleaned
	// up below once a newer valid one or none is chosen).
	base := int64(1)
	for i := len(snaps) - 1; i >= 0; i-- {
		snap, err := loadSnapshot(filepath.Join(opt.Dir, snapName(snaps[i])))
		if err != nil {
			continue
		}
		rec.Snapshot = snap
		rec.Stats.SnapshotLoaded = true
		rec.Stats.SnapshotSeg = snaps[i]
		base = snaps[i]
		break
	}

	// Replay segments from base upward; the first bad frame truncates
	// the log there and removes everything after it.
	active := base
	torn := false
	var live int64
	for _, si := range segs {
		if si < base {
			continue
		}
		if torn {
			_ = os.Remove(filepath.Join(opt.Dir, segName(si)))
			continue
		}
		path := filepath.Join(opt.Dir, segName(si))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reading segment %s: %w", path, err)
		}
		rec.Stats.Segments++
		valid, _ := scanFrames(data, func(payload []byte) error {
			r, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			rec.Records = append(rec.Records, r)
			rec.Stats.Records++
			return nil
		})
		active = si
		live += valid
		if valid < int64(len(data)) {
			rec.Stats.TruncatedBytes += int64(len(data)) - valid
			rec.Stats.Torn = true
			torn = true
			if err := os.Truncate(path, valid); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
			}
		}
	}

	// Drop segments below the snapshot base and superseded snapshots
	// (best-effort; a crash between snapshot and cleanup leaves strays
	// that are simply ignored and re-deleted here).
	for _, si := range segs {
		if si < base {
			_ = os.Remove(filepath.Join(opt.Dir, segName(si)))
		}
	}
	for _, si := range snaps {
		if rec.Stats.SnapshotLoaded && si == base {
			continue
		}
		_ = os.Remove(filepath.Join(opt.Dir, snapName(si)))
	}

	l := &Log{opt: opt, seg: active}
	if err := l.openSegment(active); err != nil {
		return nil, nil, err
	}
	l.live.Store(live)
	l.countSegments()
	if opt.Fsync == PolicyInterval {
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go l.fsyncLoop()
	}
	return l, rec, nil
}

func (l *Log) openSegment(i int64) error {
	f, err := os.OpenFile(filepath.Join(l.opt.Dir, segName(i)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening segment %d: %w", i, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: stat segment %d: %w", i, err)
	}
	l.f, l.seg, l.size = f, i, st.Size()
	return nil
}

func (l *Log) countSegments() {
	entries, err := os.ReadDir(l.opt.Dir)
	if err != nil {
		return
	}
	n := int64(0)
	for _, e := range entries {
		if _, ok := parseIndex(e.Name(), segPrefix, segSuffix); ok {
			n++
		}
	}
	l.m.Segments = n
}

func (l *Log) fsyncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if l.dirty && !l.closed {
				if err := l.f.Sync(); err != nil {
					l.noteErr(err)
				} else {
					l.m.Fsyncs++
					l.dirty = false
					// The durability pipeline is proven whole again.
					l.degraded = false
				}
			}
			l.mu.Unlock()
		case <-l.stop:
			return
		}
	}
}

// noteErr records a failure on the metrics ledger and marks the log
// degraded; callers hold l.mu.
func (l *Log) noteErr(err error) {
	l.m.Errors++
	l.m.LastError = err.Error()
	l.degraded = true
}

// Degraded reports whether the log's most recent durability operation
// failed — a failed write, fsync, rotation, or snapshot whose damage
// has not yet been repaired by a subsequent success. While degraded,
// "acked ⇒ durable" cannot be promised, so the serving layer flips
// health to 503 instead of silently acking writes it may lose. The
// string is the last error for the health payload.
func (l *Log) Degraded() (bool, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded, l.m.LastError
}

// LiveBytes reports how many journal bytes recovery would replay on top
// of the newest snapshot: every byte written since it (or since the log
// began). The serving layer writes a snapshot when this passes a bound.
func (l *Log) LiveBytes() int64 { return l.live.Load() }

// Metrics returns a copy of the counters.
func (l *Log) Metrics() Metrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m
}

// AppendBatch buffers an unkeyed add (or, with sub, exact-deletion)
// batch for the next Commit. The values are copied into the pending
// frame (one append of their little-endian view), so xs is free for
// reuse as soon as it returns.
func (l *Log) AppendBatch(xs []float64, sub bool) {
	t := RecAdd
	if sub {
		t = RecSub
	}
	l.mu.Lock()
	l.appendLocked(Record{Type: t, Values: xs})
	l.mu.Unlock()
}

// appendLocked frames r onto the pending buffer: it reserves the frame
// header, appends the payload straight after it, and fills in length and
// CRC in place.
func (l *Log) appendLocked(r Record) {
	start := len(l.pend)
	l.pend = append(l.pend, make([]byte, frameHeaderLen)...)
	switch r.Type {
	case RecAdd, RecSub, RecKeyedAdd, RecKeyedSub:
		l.pend = encodeBatch(l.pend, r.Type, r.Key, r.Values)
	case RecReset:
		l.pend = append(l.pend, byte(RecReset))
	default:
		l.pend = encodeBlob(l.pend, r.Type, r.Token, r.Blob)
	}
	putFrameHeader(l.pend[start:start+frameHeaderLen], l.pend[start+frameHeaderLen:])
	l.pendN++
}

// Commit writes every buffered frame to the active segment in one
// write, rotating first when the segment is full, and applies the fsync
// policy. A nil return means every record buffered before this call is
// at least OS-durable (and disk-durable under PolicyAlways). On error
// the buffered frames are dropped, whoever buffered them: none reaches
// the log.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked()
}

// Journal appends recs and commits them, all under the log's lock, so no
// other caller's frames can join the group or split it. A nil return
// means the whole group is durable per the fsync policy; on error none
// of its frames is in the log.
func (l *Log) Journal(recs ...Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range recs {
		l.appendLocked(r)
	}
	return l.commitLocked()
}

// commitLocked writes the pending frames and empties the pending buffer
// whether or not the write succeeded. On failure the segment holds none
// of the frames' bytes.
func (l *Log) commitLocked() error {
	err := l.writeLocked()
	l.pend, l.pendN = l.pend[:0], 0
	return err
}

func (l *Log) writeLocked() error {
	if l.closed {
		return errors.New("wal: log closed")
	}
	if l.stuck != nil {
		return l.stuck
	}
	if len(l.pend) == 0 {
		return nil
	}
	if l.size >= l.opt.SegBytes {
		if err := l.rotateLocked(); err != nil {
			l.noteErr(err)
			return err
		}
	}
	if n, err := l.f.Write(l.pend); err != nil {
		return l.undoWriteLocked(int64(n), fmt.Errorf("wal: appending: %w", err))
	}
	if l.opt.Fsync == PolicyAlways {
		if err := l.f.Sync(); err != nil {
			return l.undoWriteLocked(int64(len(l.pend)), fmt.Errorf("wal: fsync: %w", err))
		}
		l.m.Fsyncs++
	} else {
		l.dirty = true
	}
	n := int64(len(l.pend))
	l.size += n
	l.live.Add(n)
	l.m.Bytes += n
	l.m.Records += l.pendN
	l.m.Commits++
	// A fully successful commit repairs the degraded flag — except under
	// PolicyInterval, where the outstanding fsync obligation belongs to
	// the background loop and only its success proves durability again.
	if l.opt.Fsync != PolicyInterval {
		l.degraded = false
	}
	return nil
}

// undoWriteLocked records a failed segment write or fsync and, when the
// write had put bytes in the segment, truncates it back to its size
// before the write: those frames belong to a commit its callers are told
// failed, so recovery must never replay them. If the truncation fails
// too, the log refuses every later commit rather than append behind
// frames it cannot take back.
func (l *Log) undoWriteLocked(written int64, err error) error {
	l.noteErr(err)
	if written == 0 {
		return err
	}
	if terr := l.f.Truncate(l.size); terr != nil {
		l.stuck = fmt.Errorf("wal: cannot remove a failed commit's frames (%v) after: %w", terr, err)
		l.noteErr(l.stuck)
		return l.stuck
	}
	return err
}

// rotateLocked seals the active segment and opens the next one. Under
// the fsyncing policies the sealed segment is fsynced first: its frames
// must not be reordered past frames in the new segment by the page
// cache on a machine crash. PolicyOff has already conceded machine
// crashes, so it skips the barrier.
func (l *Log) rotateLocked() error {
	if l.opt.Fsync != PolicyOff {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync before rotate: %w", err)
		}
		l.m.Fsyncs++
		l.dirty = false
	}
	// Open the successor before closing the sealed segment: openSegment
	// only swaps l.f in on success, so a failed rotation (disk full,
	// directory gone) leaves the log appending to the old segment — a
	// degraded but recoverable state — instead of wedged on a closed
	// file handle.
	old, oldSeg := l.f, l.seg
	if err := l.openSegment(l.seg + 1); err != nil {
		return err
	}
	if err := old.Close(); err != nil {
		return fmt.Errorf("wal: closing segment %d: %w", oldSeg, err)
	}
	l.m.Rotations++
	l.m.Segments++
	l.syncDir()
	return nil
}

// syncDir fsyncs the log directory so renames/creates are durable;
// best-effort (some filesystems reject directory fsync).
func (l *Log) syncDir() {
	d, err := os.Open(l.opt.Dir)
	if err != nil {
		return
	}
	if d.Sync() == nil {
		l.m.Fsyncs++
	}
	d.Close()
}

// WriteSnapshot makes snap the log's new base: pending frames are
// committed and the active segment sealed, the snapshot is written
// (temp file + rename + directory fsync), and every segment and
// snapshot it supersedes is deleted. After a successful return,
// recovery loads snap and replays only records journaled after this
// call. The caller must guarantee snap captures every record committed
// so far (i.e. hold its apply lock across state capture and this
// call).
func (l *Log) WriteSnapshot(snap *Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.commitLocked(); err != nil {
		return err
	}
	// Seal the active segment so the snapshot's base is a fresh file.
	if err := l.rotateLocked(); err != nil {
		l.noteErr(err)
		return err
	}
	base := l.seg
	if err := writeSnapshot(l.opt.Dir, snapName(base), base, snap); err != nil {
		l.noteErr(err)
		return err
	}
	l.syncDir()
	l.m.Snapshots++
	l.live.Store(0)
	// Everything below base is superseded; so are older snapshots.
	entries, err := os.ReadDir(l.opt.Dir)
	if err == nil {
		for _, e := range entries {
			if i, ok := parseIndex(e.Name(), segPrefix, segSuffix); ok && i < base {
				if os.Remove(filepath.Join(l.opt.Dir, e.Name())) == nil {
					l.m.Segments--
				}
			}
			if i, ok := parseIndex(e.Name(), snapPrefix, snapSuffix); ok && i < base {
				_ = os.Remove(filepath.Join(l.opt.Dir, e.Name()))
			}
		}
	}
	return nil
}

// Close commits pending frames, fsyncs (policies other than off), and
// closes the active segment. Safe to call more than once; the log is
// unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.commitLocked()
	if l.opt.Fsync != PolicyOff {
		if serr := l.f.Sync(); serr == nil {
			l.m.Fsyncs++
		}
	}
	cerr := l.f.Close()
	l.closed = true
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		l.wg.Wait()
	}
	if err != nil {
		return err
	}
	return cerr
}
