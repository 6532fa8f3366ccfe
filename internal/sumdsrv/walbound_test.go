package sumdsrv

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"

	"parsum"
	"parsum/internal/f64le"
)

// TestLiveLogBoundTriggersSnapshots pins the journal bound: with
// WALSnapshotEvery off, sustained ingest still snapshots each time the
// log since the last snapshot passes maxLiveLogBytes, so the directory
// stays bounded — and the snapshots lose nothing across a restart.
func TestLiveLogBoundTriggersSnapshots(t *testing.T) {
	defer func(v int64) { maxLiveLogBytes = v }(maxLiveLogBytes)
	maxLiveLogBytes = 64 << 10
	dir := t.TempDir()
	opt := Options{WALDir: dir, WALFsync: "off", WALSegBytes: 16 << 10}
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for i := 0; i < 60; i++ {
		xs := make([]float64, 1024)
		for j := range xs {
			xs[j] = math.Ldexp(float64(i*j%997)-498.5, j%64-32)
		}
		all = append(all, xs...)
		req := httptest.NewRequest(http.MethodPost, "/v1/add", bytes.NewReader(f64le.Append(nil, xs)))
		req.Header.Set("Content-Type", "application/octet-stream")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("add %d: %d %s", i, rec.Code, rec.Body)
		}
		if live := srv.wal.LiveBytes(); live >= maxLiveLogBytes {
			t.Fatalf("add %d: live log %d bytes after the request, bound %d", i, live, maxLiveLogBytes)
		}
	}
	if n := srv.wal.Metrics().Snapshots; n < 5 {
		t.Fatalf("%d snapshots for ~490 KiB of journal under a 64 KiB bound", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if onDisk > 2*maxLiveLogBytes {
		t.Fatalf("journal directory holds %d bytes, bound %d", onDisk, maxLiveLogBytes)
	}
	srv.Close()

	srv2, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	rec := httptest.NewRecorder()
	srv2.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sum", nil))
	want := strconv.FormatUint(math.Float64bits(parsum.Sum(all)), 16)
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"bits":"`+want+`"`)) {
		t.Fatalf("recovered sum %s, want bits %s", rec.Body, want)
	}
}
