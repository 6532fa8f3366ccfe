package main

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestRunUsageErrors(t *testing.T) {
	ctx := context.Background()
	var out, errb strings.Builder
	if got := run(ctx, []string{"-no-such-flag"}, &out, &errb); got != 2 {
		t.Errorf("bad flag: exit %d, want 2", got)
	}
	if got := run(ctx, []string{"-backends", "http://x", "stray"}, &out, &errb); got != 2 {
		t.Errorf("stray arg: exit %d, want 2", got)
	}
	errb.Reset()
	if got := run(ctx, nil, &out, &errb); got != 2 {
		t.Errorf("no backends: exit %d, want 2", got)
	}
	if !strings.Contains(errb.String(), "-backends is required") {
		t.Errorf("no backends: stderr %q does not name the missing flag", errb.String())
	}
	// A backends list that trims down to nothing is as missing as none.
	if got := run(ctx, []string{"-backends", " , ,"}, &out, &errb); got != 2 {
		t.Errorf("empty backends list: exit %d, want 2", got)
	}
	// The fleet runs one representation; there is no engine to pick.
	if got := run(ctx, []string{"-backends", "http://x", "-engine", "dense"}, &out, &errb); got != 2 {
		t.Errorf("removed -engine flag: exit %d, want 2", got)
	}
	if got := run(ctx, []string{"-backends", "http://x", "-ack", "most"}, &out, &errb); got != 2 {
		t.Errorf("unknown ack mode: exit %d, want 2", got)
	}
	if got := run(ctx, []string{"-backends", "http://x", "-addr", "256.256.256.256:1"}, &out, &errb); got != 1 {
		t.Errorf("unbindable addr: exit %d, want 1", got)
	}
	if got := run(ctx, []string{"-h"}, &out, &errb); got != 0 {
		t.Errorf("-h: exit %d, want 0", got)
	}
}

func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	outc := make(chan string, 16)
	done := make(chan int, 1)
	go func() {
		var errb strings.Builder
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-backends", "http://127.0.0.1:1"},
			&lineWriter{c: outc}, &errb)
	}()
	deadline := time.After(5 * time.Second)
	started := false
	for !started {
		select {
		case line := <-outc:
			started = strings.Contains(line, "listening on")
		case <-deadline:
			cancel()
			t.Fatal("sumproxy did not report a listen address")
		}
	}
	cancel()
	select {
	case got := <-done:
		if got != 0 {
			t.Fatalf("exit %d, want 0", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sumproxy did not shut down")
	}
}

// lineWriter forwards every Write as a string on the channel.
type lineWriter struct {
	c chan<- string
}

func (w *lineWriter) Write(p []byte) (int, error) {
	select {
	case w.c <- string(p):
	default:
	}
	return len(p), nil
}
