package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDue stalls both connections of an otherwise
// instant server for 100 ms. The requests that fell due during the stall
// waited for a connection, so their latency, counted from when each was
// due, includes that wait; the dispatcher itself must not fall behind.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= serveConns {
			time.Sleep(100 * time.Millisecond)
		}
		w.Write([]byte(`{"results":[{"cached":true,"program":"p"}]}`))
	}))
	defer ts.Close()

	s := &served{srv: &server{base: ts.URL}, cl: newClient()}
	defer s.cl.CloseIdleConnections()
	for k := 0; k < hotPrograms; k++ {
		s.hot = append(s.hot, servedProgram{machine: "x86-8", json: []byte("{}")})
		s.hotOut = append(s.hotOut, "p")
	}
	m := s.openLoop(context.Background(), serveRate/2, false)

	if want := int64(serveRate / 2); m.attempted != want || m.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want %d and 0", m.attempted, m.failed, want)
	}
	var queued int
	for _, l := range m.lat {
		if l > float64(50*time.Millisecond) {
			queued++
		}
	}
	// About 30 requests fall due in the 100 ms stall.
	if queued < 10 {
		t.Errorf("%d requests waited over 50 ms; the stall's wait is not counted from the due time", queued)
	}
	if len(m.lateness) != int(m.attempted) {
		t.Fatalf("%d lateness samples for %d requests", len(m.lateness), m.attempted)
	}
	if late := summarize(m.lateness, nil).Tail; late > float64(50*time.Millisecond) {
		t.Errorf("dispatcher p99 lateness %v: the stall blocked the generator", time.Duration(late))
	}
}

func TestParseGCTrace(t *testing.T) {
	line := "gc 12 @1.234s 3%: 0.015+1.2+0.020 ms clock, 0.030+0.40/1.1/0.50+0.041 ms cpu, 4->5->2 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P"
	ns, ok := parseGCTrace(line)
	if !ok || int64(ns+0.5) != 2071000 {
		t.Fatalf("parseGCTrace = %v, %v; want 2071000 ns", ns, ok)
	}
	if _, ok := parseGCTrace("lsra-served: listening on 127.0.0.1:1"); ok {
		t.Fatal("a log line parsed as a GC trace line")
	}
}
