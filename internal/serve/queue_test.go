package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/target"
)

// holdWorker occupies one worker as an executing request does, with an
// admission slot and a worker slot, and returns the release. A test
// that fails first releases at cleanup, before the server closes, so a
// queued request cannot hang the close.
func holdWorker(t *testing.T, s *Server) (release func()) {
	s.slots <- struct{}{}
	s.workers <- struct{}{}
	release = sync.OnceFunc(func() {
		<-s.workers
		<-s.slots
	})
	t.Cleanup(release)
	return release
}

// waitMetrics polls /metrics until cond holds and returns that sample.
func waitMetrics(t *testing.T, url, what string, cond func(Metrics) bool) Metrics {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := getMetrics(t, url)
		if cond(m) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %s; last queue metrics %+v, requests %+v", what, m.Queue, m.Requests)
		}
		time.Sleep(time.Millisecond)
	}
}

// postAsync posts one JSON request under ctx and sends the status, or
// -1 if the client gave up, on the returned channel.
func postAsync(ctx context.Context, url string, req AllocateRequest) <-chan int {
	codes := make(chan int, 1)
	body, _ := json.Marshal(&req)
	go func() {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/allocate", bytes.NewReader(body))
		if err != nil {
			codes <- -1
			return
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			codes <- -1
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes <- resp.StatusCode
	}()
	return codes
}

// TestQueuedRequestMetrics holds the lone worker: a second request must
// wait, show in /metrics as queue depth 1 beside 1 executing, and run
// once the worker is free.
func TestQueuedRequestMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	release := holdWorker(t, s)
	codes := postAsync(context.Background(), ts.URL, AllocateRequest{Machine: "tiny:6,4", Program: workloadText(t, "tiny:6,4", 9)})

	m := waitMetrics(t, ts.URL, "one queued request", func(m Metrics) bool { return m.Queue.Depth == 1 })
	if m.Queue.Executing != 1 {
		t.Errorf("executing = %d with the lone worker held, want 1", m.Queue.Executing)
	}
	select {
	case code := <-codes:
		t.Fatalf("queued request finished with %d while the worker was held", code)
	default:
	}
	release()
	if code := <-codes; code != http.StatusOK {
		t.Fatalf("queued request finished with %d once the worker was free, want 200", code)
	}
	if m := getMetrics(t, ts.URL); m.Queue.Depth != 0 || m.Queue.Executing != 0 {
		t.Errorf("queue metrics %+v after the request finished, want none waiting or executing", m.Queue)
	}
}

// TestCancelWhileQueued cancels a request waiting for the held worker:
// it must be counted as cancelled and leave the queue, and neither its
// admission slot nor a worker may leak, so the next request runs.
func TestCancelWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := holdWorker(t, s)
	req := AllocateRequest{Machine: "tiny:6,4", Program: workloadText(t, "tiny:6,4", 9)}
	ctx, cancel := context.WithCancel(context.Background())
	codes := postAsync(ctx, ts.URL, req)

	waitMetrics(t, ts.URL, "one queued request", func(m Metrics) bool { return m.Queue.Depth == 1 })
	cancel()
	if code := <-codes; code != -1 {
		t.Fatalf("cancelled request finished with %d", code)
	}
	waitMetrics(t, ts.URL, "the cancelled request leave the queue", func(m Metrics) bool {
		return m.Requests.Cancelled == 1 && m.Queue.Depth == 0
	})
	release()
	if held, running := len(s.slots), len(s.workers); held != 0 || running != 0 {
		t.Fatalf("%d admission slots and %d workers held after the cancel, want none", held, running)
	}
	var out AllocateResponse
	post(t, ts.URL, req, http.StatusOK, &out)
}

// TestObsoleteFieldsIgnored checks that clients that still send a
// priority keep working: the JSON field and the binary query parameter
// are ignored like any unknown field, and the key is unchanged.
func TestObsoleteFieldsIgnored(t *testing.T) {
	const machine = "tiny:6,4"
	_, ts := newTestServer(t, Config{})
	text := workloadText(t, machine, 3)
	var plain AllocateResponse
	post(t, ts.URL, AllocateRequest{Machine: machine, Program: text}, http.StatusOK, &plain)
	want := plain.Results[0].Key

	body, err := json.Marshal(map[string]string{"machine": machine, "program": text, "priority": "batch"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fromJSON AllocateResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON body with a priority: status %d, want 200", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&fromJSON); err != nil {
		t.Fatal(err)
	}
	if got := fromJSON.Results[0].Key; got != want {
		t.Errorf("JSON body with a priority got key %s, want %s", got, want)
	}

	mach, err := target.Parse(machine)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.ParseProgramString(text, mach)
	if err != nil {
		t.Fatal(err)
	}
	var fromBinary AllocateResponse
	postBinary(t, ts.URL, "machine="+machine+"&priority=batch", irbin.EncodeProgram(prog), http.StatusOK, &fromBinary)
	if got := fromBinary.Results[0].Key; got != want {
		t.Errorf("binary body with ?priority=batch got key %s, want %s", got, want)
	}
}
