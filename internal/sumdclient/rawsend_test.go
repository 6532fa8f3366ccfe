package sumdclient

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"parsum"
	"parsum/internal/sumdsrv"
)

// TestRawSendNeverReadsSliceAfterReturn pins the aliasing contract of
// AddBatch/SubBatch: the body is the memory of the caller's slice, and
// a server that answers 413 without reading a large body returns the
// call while the transport may still be writing it. The caller then
// overwrites xs at once; run with -race, any transport read of xs after
// the call returned is reported.
func TestRawSendNeverReadsSliceAfterReturn(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		io.WriteString(w, `{"error":"too large"}`)
	}))
	defer hs.Close()
	c := New(hs.URL, hs.Client())
	xs := make([]float64, 1<<20) // 8 MiB: far more than the socket buffers hold
	for round := 0; round < 4; round++ {
		send := c.AddBatch
		if round%2 == 1 {
			send = c.SubBatch
		}
		err := send(context.Background(), xs)
		if ErrorStatus(err) != http.StatusRequestEntityTooLarge {
			t.Fatalf("round %d: err = %v, want a 413", round, err)
		}
		for i := range xs {
			xs[i] = float64(round + i)
		}
	}
}

// replayTransport exercises GetBody the way a transport retry does: it
// reads part of the first body, throws it away, and sends a fresh body
// from GetBody instead. It keeps that GetBody so the test can try it
// again after the call returned.
type replayTransport struct {
	next    http.RoundTripper
	getBody func() (io.ReadCloser, error)
}

func (rt *replayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.GetBody == nil {
		return nil, errors.New("request is not replayable: no GetBody")
	}
	io.CopyN(io.Discard, req.Body, 100)
	req.Body.Close()
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	rt.getBody = req.GetBody
	retry := req.Clone(req.Context())
	retry.Body = body
	return rt.next.RoundTrip(retry)
}

func TestRawSendGetBodyReplays(t *testing.T) {
	srv, err := sumdsrv.New(sumdsrv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	rt := &replayTransport{next: hs.Client().Transport}
	c := New(hs.URL, &http.Client{Transport: rt})
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = math.Ldexp(float64(i)+0.5, i%200-100)
	}
	ctx := context.Background()
	if err := c.AddBatch(ctx, xs); err != nil {
		t.Fatal(err)
	}
	if err := c.SubBatch(ctx, xs[:7]); err != nil {
		t.Fatal(err)
	}
	// Once the call has returned, even a body obtained from GetBody is
	// fenced off from the caller's memory.
	body, err := rt.getBody()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := body.Read(make([]byte, 8)); !errors.Is(err, errReleased) {
		t.Fatalf("read after return: err = %v, want errReleased", err)
	}
	got, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := parsum.Sum(xs[7:]); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("sum %x after replayed bodies, want %x", math.Float64bits(got), math.Float64bits(want))
	}
}
