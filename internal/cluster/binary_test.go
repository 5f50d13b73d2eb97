package cluster

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
)

// TestBinaryTransportRoundTrip drives the default (binary) wire form
// against live serve nodes and checks the answers are byte-identical
// to the JSON form on the same cluster — the two arms share the engine,
// so any drift is a codec bug. Concurrent clients keep the test
// meaningful under -race.
func TestBinaryTransportRoundTrip(t *testing.T) {
	c := startCluster(t, 2, NodeConfig{})
	bin := c.Client(ClientConfig{MaxAttempts: 2})
	txt := c.Client(ClientConfig{MaxAttempts: 2, DisableBinary: true})

	jobs := testJobs(t, 12)
	var wg sync.WaitGroup
	out := make([]string, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, text string) {
			defer wg.Done()
			resp, _, err := bin.Allocate(context.Background(), serve.AllocateRequest{Machine: testMachine, Program: text})
			if err != nil {
				t.Errorf("binary allocate %d: %v", i, err)
				return
			}
			if len(resp.Results) != 1 || resp.Results[0].Program == "" {
				t.Errorf("binary allocate %d: empty result", i)
				return
			}
			out[i] = resp.Results[0].Program
		}(i, j.Text)
	}
	wg.Wait()

	for i, j := range jobs {
		resp, _, err := txt.Allocate(context.Background(), serve.AllocateRequest{Machine: testMachine, Program: j.Text})
		if err != nil {
			t.Fatalf("json allocate %d: %v", i, err)
		}
		if got := resp.Results[0].Program; got != out[i] {
			t.Fatalf("program %d: binary and JSON wire forms disagree:\nbinary:\n%s\njson:\n%s", i, out[i], got)
		}
	}

	bs, ts := bin.Stats(), txt.Stats()
	if bs.BinaryRequests == 0 {
		t.Fatalf("binary client sent no binary requests: %+v", bs)
	}
	if ts.BinaryRequests != 0 {
		t.Fatalf("DisableBinary client sent binary requests: %+v", ts)
	}
}

// TestBinaryUnparsableFallsBackToJSON: a program the client cannot
// parse travels as JSON so the server's parser reports the error, and
// no binary request is attempted for it.
func TestBinaryUnparsableFallsBackToJSON(t *testing.T) {
	c := startCluster(t, 1, NodeConfig{})
	cl := c.Client(ClientConfig{})
	_, _, err := cl.Allocate(context.Background(), serve.AllocateRequest{Machine: testMachine, Program: "this is not a program"})
	if err == nil {
		t.Fatal("expected a server-side parse error")
	}
	if !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("want the server's 400, got: %v", err)
	}
	if st := cl.Stats(); st.BinaryRequests != 0 {
		t.Fatalf("unparsable program was sent as binary: %+v", st)
	}
}
