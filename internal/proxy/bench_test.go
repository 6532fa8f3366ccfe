package proxy_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"parsum/internal/proxy"
	"parsum/internal/sumdsrv"
)

// rewindBody is a request body the benchmark rewinds between requests,
// so the loop measures the proxy, not request construction.
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

// BenchmarkProxyWrite serves one keyed 64-value octet-stream write per
// iteration straight into the proxy handler, which fans it out to three
// sumd backends on loopback over its default transport: body decode,
// envelope, token, three replica legs and the reply. allocs/op and B/op
// count both ends of every leg, since the backends run in-process.
func BenchmarkProxyWrite(b *testing.B) {
	var urls []string
	for i := 0; i < 3; i++ {
		srv, err := sumdsrv.New(sumdsrv.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		hs := httptest.NewServer(srv)
		defer hs.Close()
		urls = append(urls, hs.URL)
	}
	p, err := proxy.New(proxy.Options{Backends: urls, ReplayEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()

	body := make([]byte, 0, 64*8)
	for i := 0; i < 64; i++ {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(float64(i)*1.0000001e-3))
	}
	const keys = 64
	reqs := make([]*http.Request, keys)
	for k := range reqs {
		req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("/v1/add?key=key-%02d", k), nil)
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.ContentLength = int64(len(body))
		reqs[k] = req
	}
	rb := &rewindBody{}
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reqs[i%keys]
		rb.Reset(body)
		req.Body = rb
		w.code = 0
		p.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
}
