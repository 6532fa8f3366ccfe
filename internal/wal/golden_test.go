package wal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.seg from the current encoder")

// goldenSegment journals sampleRecords plus a larger value batch —
// committing the first half record by record and the rest as one group
// — and returns the bytes of the one segment written.
func goldenSegment(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	recs := goldenRecords()
	half := len(recs) / 2
	for _, r := range recs[:half] {
		if err := l.Journal(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Journal(recs[half:]...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func goldenRecords() []Record {
	big := make([]float64, 300)
	for i := range big {
		big[i] = float64(i*i) * -0.375
	}
	return append(sampleRecords(),
		Record{Type: RecKeyedAdd, Key: "k", Values: big},
		Record{Type: RecAdd, Values: big[:17]})
}

// TestSegmentBytesGolden pins the on-disk record format: the same
// append sequence must produce the committed segment byte for byte
// (the golden file was written by the encoder that re-encoded values
// one by one; the view-based encoder must match it), and that file
// must recover to the same records.
func TestSegmentBytesGolden(t *testing.T) {
	golden := filepath.Join("testdata", "golden.seg")
	got := goldenSegment(t)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment bytes differ from %s (%d vs %d bytes)", golden, len(got), len(want))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), want, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, Options{Dir: dir})
	checkRecovered(t, rec.Records, goldenRecords())
}
