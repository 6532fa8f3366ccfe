package wal

// FuzzWALReplay feeds hostile bytes to recovery as a segment file — the
// PR-3 codec-gauntlet treatment for the durability path. Recovery must
// never panic and never error on corruption (truncate-and-continue is
// the contract), and the records it does accept must round-trip: re-
// journaling them into a fresh log and recovering again yields the
// same records. A second property pins the physical truncation: after
// a torn recovery the log must accept appends and recover cleanly.

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func FuzzWALReplay(f *testing.F) {
	// Seed 1: a clean log with every record type.
	f.Add(buildSeg(f, func(l *Log) error {
		return l.Journal(sampleRecords()...)
	}))
	// Seed 2: a clean log followed by garbage (torn tail).
	f.Add(append(buildSeg(f, func(l *Log) error {
		return l.Journal(Record{Type: RecAdd, Values: []float64{1, math.Inf(-1)}})
	}), 0xDE, 0xAD, 0xBE, 0xEF))
	// Seed 3: a frame with a corrupted CRC byte.
	flipped := buildSeg(f, func(l *Log) error {
		return l.Journal(
			Record{Type: RecKeyedSub, Key: "k", Values: []float64{2}},
			Record{Type: RecPartial, Token: "tok", Blob: []byte{0xC7, 1}},
		)
	})
	flipped[5] ^= 0x40
	f.Add(flipped)
	// Seed 4: a hostile length field.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4, 9, 9, 9})
	// Seed 5: empty file.
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(Options{Dir: dir, Fsync: PolicyOff})
		if err != nil {
			t.Fatalf("Open on hostile segment errored (must truncate instead): %v", err)
		}
		if rec.Stats.TruncatedBytes > int64(len(data)) {
			t.Fatalf("truncated %d bytes of a %d-byte segment", rec.Stats.TruncatedBytes, len(data))
		}

		// The accepted prefix must be appendable: journal one more
		// record, recover, and see prefix + 1.
		l.AppendBatch([]float64{3.5}, false)
		if err := l.Commit(); err != nil {
			t.Fatalf("Commit after hostile recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		_, rec2, err := Open(Options{Dir: dir, Fsync: PolicyOff})
		if err != nil {
			t.Fatalf("re-Open: %v", err)
		}
		if len(rec2.Records) != len(rec.Records)+1 {
			t.Fatalf("after append: recovered %d records, want %d", len(rec2.Records), len(rec.Records)+1)
		}

		// Round-trip: re-journal the accepted records into a fresh log;
		// recovery must reproduce them bit for bit.
		dir2 := t.TempDir()
		l2, _, err := Open(Options{Dir: dir2, Fsync: PolicyOff})
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.Journal(rec.Records...); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec3, err := Open(Options{Dir: dir2, Fsync: PolicyOff})
		if err != nil {
			t.Fatal(err)
		}
		if len(rec3.Records) != len(rec.Records) {
			t.Fatalf("round-trip recovered %d records, want %d", len(rec3.Records), len(rec.Records))
		}
		for i := range rec.Records {
			if !recordsEqual(rec3.Records[i], rec.Records[i]) {
				t.Fatalf("round-trip record %d = %+v, want %+v", i, rec3.Records[i], rec.Records[i])
			}
		}
	})
}

// buildSeg journals records via fn and returns the raw segment bytes.
func buildSeg(f *testing.F, fn func(*Log) error) []byte {
	f.Helper()
	dir := f.TempDir()
	l, _, err := Open(Options{Dir: dir, Fsync: PolicyOff})
	if err != nil {
		f.Fatal(err)
	}
	if err := fn(l); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return data
}
