//go:build unix

package sumdclient

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"
	"time"
)

// BenchmarkTransportRoundTrip pushes a 600-byte body over loopback from
// two concurrent callers, through net/http's pooled transport and
// through NewTransport, against a handler that drains the body and
// answers like sumd. cpu-us/op is the whole process's CPU time (user +
// system, both ends of the socket) per round trip.
func BenchmarkTransportRoundTrip(b *testing.B) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"merged":1}`)
	}))
	defer hs.Close()
	body := make([]byte, 600)
	for _, tc := range []struct {
		name string
		rt   func() http.RoundTripper
	}{
		{"net-http", func() http.RoundTripper { return http.DefaultTransport.(*http.Transport).Clone() }},
		{"sync", func() http.RoundTripper { return NewTransport(hs.URL) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rt := tc.rt()
			c := New(hs.URL, &http.Client{Transport: rt})
			defer c.CloseIdleConnections()
			const callers = 2
			b.ReportAllocs()
			b.ResetTimer()
			cpu0 := cpuTime(b)
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := c.PushKeyedIdem(context.Background(), "bench-token", body); err != nil {
							b.Error(err)
							return
						}
					}
				}((b.N + g) / callers)
			}
			wg.Wait()
			b.ReportMetric(float64((cpuTime(b)-cpu0).Microseconds())/float64(b.N), "cpu-us/op")
		})
	}
}

// cpuTime is the process's CPU time so far, user plus system.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
