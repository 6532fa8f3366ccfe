package sumdsrv_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"parsum/internal/sumdsrv"
)

// rewindBody is a request body the benchmark rewinds between requests,
// so the loop measures the handler, not request construction.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// discardWriter is a reusable ResponseWriter that drops the reply.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// BenchmarkAddHandler serves one octet-stream POST /v1/add per
// iteration straight into the handler (no socket, no WAL): body read,
// decode, apply and reply. allocs/op and B/op are the handler's own.
func BenchmarkAddHandler(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("values=%d", n), func(b *testing.B) {
			srv, err := sumdsrv.New(sumdsrv.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			body := leBytes(benchValues(n))
			req, err := http.NewRequest(http.MethodPost, "/v1/add", nil)
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/octet-stream")
			req.ContentLength = int64(len(body))
			rb := &rewindBody{}
			w := &discardWriter{h: http.Header{}}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb.Reset(body)
				req.Body = rb
				w.code = 0
				srv.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					b.Fatalf("status %d", w.code)
				}
			}
		})
	}
}

func benchValues(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%1000) * 1.0000001e-3
	}
	return xs
}

// BenchmarkAddHandlerFsyncAlways serves 64-value octet-stream adds from
// 8 goroutines per GOMAXPROCS into a server whose journal fsyncs every
// commit, so each flush group costs one fsync. It reports fsyncs per
// request: below 1 when concurrent requests share a group commit.
func BenchmarkAddHandlerFsyncAlways(b *testing.B) {
	srv, err := sumdsrv.New(sumdsrv.Options{WALDir: b.TempDir(), WALFsync: "always"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	body := leBytes(benchValues(64))
	fsyncs := func() int64 {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var st sumdsrv.StatsResponse
		if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		return st.WAL.Fsyncs
	}
	before := fsyncs()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req, err := http.NewRequest(http.MethodPost, "/v1/add", nil)
		if err != nil {
			b.Error(err)
			return
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.ContentLength = int64(len(body))
		rb := &rewindBody{}
		w := &discardWriter{h: http.Header{}}
		for pb.Next() {
			rb.Reset(body)
			req.Body = rb
			w.code = 0
			srv.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Errorf("status %d", w.code)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(fsyncs()-before)/float64(b.N), "fsyncs/op")
}
