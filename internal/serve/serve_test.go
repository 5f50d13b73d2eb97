package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	regalloc "repro"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/target"
)

// newTestServer builds a Server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Verify = true // tests always verify
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one AllocateRequest and decodes the response into out (a
// pointer) when the status matches wantCode.
func post(t *testing.T, url string, req AllocateRequest, wantCode int, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("status %d, want %d (error: %s)", resp.StatusCode, wantCode, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func getMetrics(t *testing.T, url string) Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func phaseNs(m Metrics) int64 {
	var total int64
	for _, p := range m.Phases {
		total += p.Ns
	}
	return total
}

// workloadText returns one deterministic program in wire form.
func workloadText(t *testing.T, machine string, seed int64) string {
	t.Helper()
	mach, err := target.Parse(machine)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := experiments.Workload(mach, []string{"default"}, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return jobs[0].Text
}

func TestAllocateRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	text := workloadText(t, "tiny:6,4", 3)

	var out AllocateResponse
	post(t, ts.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)
	if len(out.Results) != 1 {
		t.Fatalf("%d results, want 1", len(out.Results))
	}
	res := out.Results[0]
	if res.Cached {
		t.Error("first request reported a cache hit")
	}
	if res.Report == nil || res.Report.Totals.Candidates == 0 {
		t.Error("missing allocation report")
	}
	if !strings.HasPrefix(res.Key, "sha256:") {
		t.Errorf("key %q is not a content address", res.Key)
	}
	// The response program must be well-formed allocated IR: it parses,
	// and contains no temporaries (every operand is a register or slot).
	mach, err := target.Parse("tiny:6,4")
	if err != nil {
		t.Fatal(err)
	}
	allocated, err := ir.ParseProgramString(res.Program, mach)
	if err != nil {
		t.Fatalf("response program does not parse: %v", err)
	}
	if err := ir.ValidateAllocated(allocated.Proc("main"), mach); err != nil {
		t.Errorf("response program is not validly allocated: %v", err)
	}
}

// TestCacheHitLoadTest is the end-to-end service load test: a repeated
// program must be served from the cache under concurrent batched
// requests with ZERO allocator phase work (the cumulative phase-time
// metric does not move on the hit path), and cache entries must be
// isolated from response-side mutation by construction (each response
// is an independent serialization).
func TestCacheHitLoadTest(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256})
	text := workloadText(t, "x86-8", 17)
	req := AllocateRequest{Machine: "x86-8", Program: text}

	// Seed the cache (miss path).
	var first AllocateResponse
	post(t, ts.URL, req, http.StatusOK, &first)
	m1 := getMetrics(t, ts.URL)
	if m1.Programs != 1 || m1.CachedPrograms != 0 {
		t.Fatalf("after miss: programs=%d cached=%d", m1.Programs, m1.CachedPrograms)
	}
	missPhases := phaseNs(m1)
	if missPhases == 0 {
		t.Fatal("miss path recorded no phase work")
	}

	// Hammer the same program concurrently, batched two programs per
	// request.
	const clients, rounds = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			breq := AllocateRequest{Machine: "x86-8", Programs: []string{text, text}}
			body, _ := json.Marshal(&breq)
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(ts.URL+"/allocate", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var out AllocateResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				for _, res := range out.Results {
					if !res.Cached {
						errs <- fmt.Errorf("repeated program missed the cache")
						return
					}
					if res.Program != first.Results[0].Program {
						errs <- fmt.Errorf("cached result diverged from the original allocation")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m2 := getMetrics(t, ts.URL)
	// The headline assertion: the hit path performed zero allocator
	// phase work — the cumulative phase counters are byte-for-byte
	// where the single miss left them.
	if got := phaseNs(m2); got != missPhases {
		t.Errorf("phase work grew on the cache-hit path: %d ns -> %d ns", missPhases, got)
	}
	wantPrograms := uint64(1 + clients*rounds*2)
	if m2.Programs != wantPrograms || m2.CachedPrograms != wantPrograms-1 {
		t.Errorf("programs=%d cached=%d, want %d/%d", m2.Programs, m2.CachedPrograms, wantPrograms, wantPrograms-1)
	}
	if m2.Cache == nil || m2.Cache.Hits == 0 || m2.Cache.HitRate == 0 {
		t.Error("cache metrics missing or zero after hits")
	}
	if s.Cache().Stats().Entries != 1 {
		t.Errorf("cache entries = %d, want 1", s.Cache().Stats().Entries)
	}
}

func TestMixedWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	mach, err := target.Parse("risc-16")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := experiments.Workload(mach, []string{"call-heavy", "loop-nest", "straightline"}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two passes over the workload: first misses, second hits.
	for pass := 0; pass < 2; pass++ {
		var wg sync.WaitGroup
		for _, job := range jobs {
			wg.Add(1)
			go func(text string) {
				defer wg.Done()
				var out AllocateResponse
				post(t, ts.URL, AllocateRequest{Machine: "risc-16", Program: text}, http.StatusOK, &out)
			}(job.Text)
		}
		wg.Wait()
	}
	m := getMetrics(t, ts.URL)
	n := uint64(len(jobs))
	if m.Programs != 2*n {
		t.Errorf("programs = %d, want %d", m.Programs, 2*n)
	}
	if m.CachedPrograms != n {
		t.Errorf("cached programs = %d, want %d (second pass should hit)", m.CachedPrograms, n)
	}
}

func TestBackpressure429(t *testing.T) {
	// One worker, no queue: a second concurrent request must bounce
	// with 429 + Retry-After.
	s, err := New(Config{Workers: 1, QueueDepth: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Fill the worker and the queue slot by occupying admission slots
	// directly (deterministic, no timing games).
	s.slots <- struct{}{}
	s.slots <- struct{}{}
	defer func() { <-s.slots; <-s.slots }()

	text := workloadText(t, "tiny:6,4", 5)
	body, _ := json.Marshal(&AllocateRequest{Machine: "tiny:6,4", Program: text})
	resp, err := http.Post(ts.URL+"/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	m := getMetrics(t, ts.URL)
	if m.Requests.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", m.Requests.Rejected)
	}
	if m.Queue.Capacity != 1 || m.Queue.Workers != 1 {
		t.Errorf("queue metrics = %+v", m.Queue)
	}
}

// TestGracefulDrain is a property test over seeded-random timings. Each
// round staggers a mix of text and binary requests against a Shutdown
// that starts after a random delay. Whatever the interleaving, every
// request must finish (200) or be refused as draining (503), never be
// dropped, and Shutdown must return with no request in flight.
func TestGracefulDrain(t *testing.T) {
	text := workloadText(t, "alpha", 9)
	mach, err := target.Parse("alpha")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.ParseProgramString(text, mach)
	if err != nil {
		t.Fatal(err)
	}
	frame := irbin.EncodeProgram(prog)
	seeds := rand.New(rand.NewSource(17))
	for round := 0; round < 6; round++ {
		seed := seeds.Int63()
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			drainRound(t, rand.New(rand.NewSource(seed)), text, frame)
		})
	}
}

// drainRound runs one TestGracefulDrain round with timings from rng.
func drainRound(t *testing.T, rng *rand.Rand, text string, frame []byte) {
	n := 8 + rng.Intn(17)
	// Admission holds every request (2 workers + n queue slots), so a
	// request can only finish or be refused as draining: a 429 from a
	// full queue would say nothing about the drain.
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: n})
	textBody, err := json.Marshal(&AllocateRequest{Machine: "alpha", Program: text})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		delay := time.Duration(rng.Intn(3000)) * time.Microsecond
		endpoint, ctype, body := ts.URL+"/allocate", "application/json", textBody
		if rng.Intn(2) == 1 {
			endpoint, ctype, body = ts.URL+"/allocate?machine=alpha", ContentTypeBinaryIR, frame
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(delay)
			resp, err := http.Post(endpoint, ctype, bytes.NewReader(body))
			if err != nil {
				codes <- -1
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body)
			codes <- resp.StatusCode
		}()
	}
	time.Sleep(time.Duration(rng.Intn(10000)) * time.Microsecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Shutdown returned, so nothing may still hold an admission slot
	// or a worker.
	if held := len(s.slots); held != 0 {
		t.Errorf("%d admission slots still held after Shutdown", held)
	}
	if running := len(s.workers); running != 0 {
		t.Errorf("%d requests still executing after Shutdown", running)
	}
	wg.Wait()
	close(codes)
	var ok, refused uint64
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			refused++
		default:
			t.Errorf("request finished with %d during drain, want 200 or 503", code)
		}
	}
	if m := getMetrics(t, ts.URL); m.Requests.OK != ok || m.Requests.Draining != refused {
		t.Errorf("metrics count %d ok and %d draining, clients saw %d and %d",
			m.Requests.OK, m.Requests.Draining, ok, refused)
	}

	// After drain: healthz reports draining, allocations are refused.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: %d, want 503", resp.StatusCode)
	}
	post(t, ts.URL, AllocateRequest{Machine: "alpha", Program: text}, http.StatusServiceUnavailable, nil)
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	text := workloadText(t, "tiny:6,4", 1)
	cases := []struct {
		name string
		req  AllocateRequest
	}{
		{"empty", AllocateRequest{Machine: "tiny:6,4"}},
		{"unknown machine", AllocateRequest{Machine: "no-such-machine", Program: text}},
		{"unknown algorithm", AllocateRequest{Machine: "tiny:6,4", Algorithm: "magic", Program: text}},
		{"unparsable program", AllocateRequest{Machine: "tiny:6,4", Program: "this is not IR"}},
		{"both program and programs", AllocateRequest{Machine: "tiny:6,4", Program: text, Programs: []string{text}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			post(t, ts.URL, tc.req, http.StatusBadRequest, nil)
		})
	}
	// Method checks.
	resp, err := http.Get(ts.URL + "/allocate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /allocate: %d, want 405", resp.StatusCode)
	}
}

func TestAlgorithmRestriction(t *testing.T) {
	_, ts := newTestServer(t, Config{Algorithms: []string{"binpack"}})
	text := workloadText(t, "tiny:6,4", 2)
	post(t, ts.URL, AllocateRequest{Machine: "tiny:6,4", Algorithm: "coloring", Program: text}, http.StatusBadRequest, nil)
	var out AllocateResponse
	post(t, ts.URL, AllocateRequest{Machine: "tiny:6,4", Algorithm: "binpack", Program: text}, http.StatusOK, &out)

	if _, err := New(Config{Algorithms: []string{"bogus"}}); err == nil {
		t.Error("New accepted an unknown algorithm restriction")
	}
}

func TestEngineTableBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxEngines: 2})
	text := workloadText(t, "tiny:6,4", 4)
	// Sweep more machine shapes than the bound; the table must not
	// grow past it (a client cycling specs cannot OOM the daemon).
	for _, machine := range []string{"tiny:6,4", "tiny:7,4", "tiny:8,4", "tiny:9,4"} {
		mach, err := target.Parse(machine)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := experiments.Workload(mach, []string{"straightline"}, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		var out AllocateResponse
		post(t, ts.URL, AllocateRequest{Machine: machine, Program: jobs[0].Text}, http.StatusOK, &out)
	}
	s.mu.Lock()
	n := len(s.engines)
	s.mu.Unlock()
	if n > 2 {
		t.Errorf("engine table grew to %d entries, bound is 2", n)
	}
	// Alias spellings of one machine share an engine: "tiny" the
	// preset and "tiny:6,4" resolve to the same Spec.
	s2, ts2 := newTestServer(t, Config{})
	for _, machine := range []string{"tiny:6,4", "tiny"} {
		var out AllocateResponse
		post(t, ts2.URL, AllocateRequest{Machine: machine, Program: text}, http.StatusOK, &out)
	}
	s2.mu.Lock()
	n2 := len(s2.engines)
	s2.mu.Unlock()
	if n2 != 1 {
		t.Errorf("alias machine spellings built %d engines, want 1 (keyed by canonical Spec)", n2)
	}
}

func TestConfigEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc configDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Machines) == 0 || len(doc.Algorithms) == 0 {
		t.Errorf("config = %+v, want populated machines and algorithms", doc)
	}
	if !doc.Verify {
		t.Error("config should report verification on")
	}
}

// TestUndecodableCacheEntryIsAMiss plants an entry whose frame cannot
// be decoded under a live request's key: the next request must be
// re-allocated and answered as a miss with the same program, never a
// 500, and the bad entry replaced.
func TestUndecodableCacheEntryIsAMiss(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := AllocateRequest{Machine: "tiny:6,4", Program: workloadText(t, "tiny:6,4", 24)}
	var first, again AllocateResponse
	post(t, ts.URL, req, http.StatusOK, &first)
	key := regalloc.CacheKey(first.Results[0].Key)
	s.Cache().Put(key, &regalloc.CachedAllocation{Frame: []byte(irbin.Magic + "junk"), Report: first.Results[0].Report})

	post(t, ts.URL, req, http.StatusOK, &again)
	if again.Results[0].Cached {
		t.Error("undecodable entry reported as a cache hit")
	}
	if again.Results[0].Program != first.Results[0].Program {
		t.Error("re-allocation after a bad entry printed a different program")
	}
	post(t, ts.URL, req, http.StatusOK, &again)
	if !again.Results[0].Cached || again.Results[0].Program != first.Results[0].Program {
		t.Error("bad entry was not replaced by the re-allocation")
	}
}
