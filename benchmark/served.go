package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	regalloc "repro"
	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/serve"
)

const (
	serveMachine = "x86-8"
	serveConns   = 2   // keep-alive connections, one per load-generator worker
	serveRate    = 300 // open-loop offered rate, requests/s
	// closedRate sizes the closed-loop phase: it sends closedRate requests
	// per second of its nominal length, which takes about that long on a
	// two-CPU host. A fixed count, not a fixed time, gives every run the
	// same requests, so the daemon ends every run with the same cache.
	closedRate  = 750
	hotPrograms = 64
	coldPercent = 20 // share of requests for never-seen programs
	// qualityCold is how many cold programs join the hot set in the
	// quality set: fewer than the open-loop phase always sends.
	qualityCold = 512
)

// servedProgram is one program with both request bodies encoded up
// front, so the load generator only sends bytes. The IR itself is not
// kept: the check decodes it back from the binary body, which keeps the
// load generator's heap (and its garbage collector) small.
type servedProgram struct {
	name    string
	machine string
	json    []byte // text /allocate body
	bin     []byte // application/x-lsra-ir body
}

func encodeServed(in input, mach *regalloc.Machine) (servedProgram, error) {
	body, err := json.Marshal(serve.AllocateRequest{Machine: mach.Name, Program: printed(in.prog, mach)})
	return servedProgram{name: in.name, machine: mach.Name, json: body, bin: irbin.EncodeProgram(in.prog)}, err
}

// input decodes the program back from its binary body.
func (p servedProgram) input() (input, error) {
	prog, err := irbin.DecodeProgram(p.bin)
	return input{name: p.name, prog: prog}, err
}

// text returns the program's text form as the JSON body carries it.
func (p servedProgram) text() (string, error) {
	var req serve.AllocateRequest
	err := json.Unmarshal(p.json, &req)
	return req.Program, err
}

func newClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
	}}
}

// served drives a real lsra-served process over loopback HTTP.
type served struct {
	mach    *regalloc.Machine
	seed    int64
	srv     *server
	cl      *http.Client
	lib     *regalloc.Engine // the daemon's default configuration, in process
	corrupt func(*ir.Program)

	hot, cold []servedProgram
	seq       atomic.Int64 // requests issued; indexes the request mix
	coldNext  atomic.Int64
	reused    atomic.Int64 // cold picks past the pool, sent as hot

	mu      sync.Mutex
	hotOut  []string // the program each hot request must get back
	coldOut []string
	coldBin []bool // whether cold program k went as a binary body
}

// phaseRequests is how many requests each phase of a window of length d
// sends: the open-loop phase fills the first half at serveRate, the
// closed-loop phase sends closedRate per second of the second half.
func phaseRequests(d time.Duration) (open, closed int) {
	half := (d / 2).Seconds()
	return int(serveRate * half), int(closedRate * half)
}

// pick draws request i of the mix: a hot program (or a cold one) in a
// text or binary body. It depends only on the seed and i, so both
// load-generator workers draw from one sequence.
func (s *served) pick(i int64) (hot int, cold, binary bool) {
	h := splitmix64(uint64(s.seed)<<20 ^ uint64(i))
	return int(h >> 16 % hotPrograms), h%100 < coldPercent, h>>8&1 == 1
}

// setupServe generates the hot set and the cold pool, encodes every
// body, starts lsra-served and sends each hot program once, so the
// window starts with the hot set cached.
func setupServe(ctx context.Context, e env) (instance, error) {
	mach, err := regalloc.ParseMachine(serveMachine)
	if err != nil {
		return nil, err
	}
	lib, err := regalloc.New(mach, regalloc.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	s := &served{mach: mach, seed: e.seed, lib: lib, corrupt: e.corrupt}
	// The cold pool holds exactly the cold requests the run will send.
	windows, d := 1, e.window
	if e.trace {
		windows, d = 4, e.window/4
	}
	open, closed := phaseRequests(d)
	nCold := 0
	for i := 0; i < windows*(open+closed); i++ {
		if _, cold, _ := s.pick(int64(i)); cold {
			nCold++
		}
	}
	rng := rand.New(rand.NewSource(e.seed))
	for j := 0; j < hotPrograms+nCold; j++ {
		p, err := encodeServed(randomProgram(mach, rng, j), mach)
		if err != nil {
			return nil, err
		}
		if len(s.hot) < hotPrograms {
			s.hot = append(s.hot, p)
		} else {
			s.cold = append(s.cold, p)
		}
	}
	s.hotOut = make([]string, len(s.hot))
	s.coldOut = make([]string, len(s.cold))
	s.coldBin = make([]bool, len(s.cold))
	s.cl = newClient()
	if s.srv, err = startServer(ctx, e.served, e.trace); err != nil {
		return nil, err
	}
	for k, p := range s.hot {
		ans, err := answerOf(s.post(ctx, p, false))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up, hot program %d: %w", k, err)
		}
		s.hotOut[k] = ans.Program
	}
	return s, nil
}

// post sends one program as a text-JSON or binary /allocate request and
// returns the response body and status.
func (s *served) post(ctx context.Context, p servedProgram, binary bool) ([]byte, int, error) {
	url, ctype, body := s.srv.base+"/allocate", "application/json", p.json
	if binary {
		url, ctype, body = s.srv.base+"/allocate?machine="+p.machine, serve.ContentTypeBinaryIR, p.bin
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := s.cl.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// answer is the part of an /allocate response the benchmark reads.
type answer struct {
	Cached  bool   `json:"cached"`
	Program string `json:"program"`
}

// answerOf reads the answer out of one /allocate response.
func answerOf(body []byte, status int, err error) (answer, error) {
	if err != nil {
		return answer{}, err
	}
	if status != http.StatusOK {
		return answer{}, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var r struct{ Results []answer }
	if err := json.Unmarshal(body, &r); err != nil {
		return answer{}, err
	}
	if len(r.Results) != 1 {
		return answer{}, fmt.Errorf("%d results for one program", len(r.Results))
	}
	return r.Results[0], nil
}

// httpSpan names a request's span by cache outcome and body format.
func httpSpan(cached, binary bool) string {
	name := "http.miss_"
	if cached {
		name = "http.hit_"
	}
	if binary {
		return name + "binary"
	}
	return name + "text"
}

// splitmix64 is a seedable hash; the request mix draws request i from
// splitmix64(seed, i) so both load-generator workers see one sequence.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// request sends the next request of the mix and accounts it in m. due
// is when the request was due to be sent; open marks the open-loop
// phase, whose requests give the latency metrics.
func (s *served) request(ctx context.Context, m *measurement, tr *tracer, due int64, open bool) {
	i := s.seq.Add(1) - 1
	hot, isCold, binary := s.pick(i)
	cold := -1
	if isCold {
		if k := int(s.coldNext.Add(1) - 1); k < len(s.cold) {
			cold = k
		} else {
			s.reused.Add(1)
		}
	}
	p := s.hot[hot]
	if cold >= 0 {
		p = s.cold[cold]
	}
	sent := now()
	body, status, err := s.post(ctx, p, binary)
	end := now()
	m.attempted++
	m.serve.reqs++
	m.serve.clientNs += float64(end - sent)
	if open {
		m.lat = append(m.lat, float64(end-due))
		m.at = append(m.at, due)
	}
	ans, err := answerOf(body, status, err)
	if err == nil {
		s.mu.Lock()
		if cold >= 0 {
			s.coldOut[cold], s.coldBin[cold] = ans.Program, binary
		} else if ans.Program != s.hotOut[hot] {
			err = fmt.Errorf("hot program %d: answer differs from the first one", hot)
		}
		s.mu.Unlock()
	}
	if err != nil {
		if m.failed++; m.failed == 1 && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "benchmark: request %d: %v\n", i, err)
		}
		return
	}
	if ans.Cached {
		m.serve.hits++
		if open {
			m.hitLat = append(m.hitLat, float64(end-due))
		}
	} else {
		m.serve.misses++
	}
	if tr.reserve(3) {
		op := i
		root := tr.add(op, 0, "op", due, end)
		if sent > due {
			tr.add(op, root, "loadgen.queue", due, sent)
		}
		tr.add(op, root, httpSpan(ans.Cached, binary), sent, end)
	}
}

// openLoop offers n requests at serveRate per second over serveConns
// connections, whatever the responses' pace: a request waits for a free
// connection when both are busy, and its latency counts from when it was
// due. lateness records how late the dispatcher itself handed each
// request out.
func (s *served) openLoop(ctx context.Context, n int, traced bool) measurement {
	due := make(chan int64, n) // sized to the number of sends: the dispatcher never blocks
	late := make([]float64, 0, n)
	per := make([]measurement, serveConns)
	start := now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(due)
		for i := 0; i < n; i++ {
			t := start + int64(i)*int64(time.Second)/serveRate
			if wait := t - now(); wait > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Duration(wait)):
				}
			}
			late = append(late, float64(now()-t))
			due <- t
		}
	}()
	for k := range per {
		if traced {
			per[k].tracers = []*tracer{newTracer(traceCap)}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr *tracer
			if traced {
				tr = per[k].tracers[0]
			}
			for t := range due {
				s.request(ctx, &per[k], tr, t, true)
			}
		}()
	}
	wg.Wait()
	var m measurement
	for _, p := range per {
		m.add(p)
	}
	m.lateness = late
	return m
}

// closedLoop sends n requests from serveConns clients that each send
// their next request as soon as the previous answer arrives; its
// completions per second are the service's capacity on this mix.
func (s *served) closedLoop(ctx context.Context, n int, traced bool) measurement {
	per := make([]measurement, serveConns)
	var left atomic.Int64
	left.Store(int64(n))
	start := now()
	var wg sync.WaitGroup
	for k := range per {
		var tr *tracer
		if traced {
			tr = newTracer(traceCap)
			per[k].tracers = []*tracer{tr}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left.Add(-1) >= 0 && ctx.Err() == nil {
				s.request(ctx, &per[k], tr, now(), false)
			}
		}()
	}
	wg.Wait()
	var m measurement
	for _, p := range per {
		m.add(p)
	}
	m.doneOps, m.doneNs = m.attempted-m.failed, now()-start
	return m
}

// window runs the open-loop phase (latency at a fixed rate) for the
// first half of d and then the closed-loop phase (capacity), sized by
// phaseRequests. Resource and engine figures come from the daemon: /proc
// for CPU, /metrics for heap and allocation time, gctrace for GC.
func (s *served) window(ctx context.Context, d time.Duration, traced bool) (measurement, error) {
	pid := s.srv.pid()
	m0, err := s.srv.metrics()
	if err != nil {
		return measurement{}, err
	}
	cpu0, err := procCPUNs(pid)
	if err != nil {
		return measurement{}, err
	}
	gc0, gcCPU0 := s.srv.gc()

	open, closed := phaseRequests(d)
	var m measurement
	m.add(s.openLoop(ctx, open, traced))
	m.add(s.closedLoop(ctx, closed, traced))

	m1, err := s.srv.metrics()
	if err != nil {
		return m, err
	}
	cpu1, err := procCPUNs(pid)
	if err != nil {
		return m, err
	}
	gc1, gcCPU1 := s.srv.gc()
	m.use = usage{cpuNs: cpu1 - cpu0, heapBytes: m1.Heap.Bytes - m0.Heap.Bytes, gcCycles: gc1 - gc0, gcCPUNs: gcCPU1 - gcCPU0}
	m.engine = engineStats{
		programs: int64((m1.Programs - m1.CachedPrograms) - (m0.Programs - m0.CachedPrograms)),
		wallNs:   m1.AllocWallNs - m0.AllocWallNs,
		phaseNs:  map[string]int64{},
	}
	for i, ph := range m1.Phases {
		m.engine.phaseNs[ph.Phase] = ph.Ns
		if i < len(m0.Phases) {
			m.engine.phaseNs[ph.Phase] -= m0.Phases[i].Ns
		}
	}
	m.serve.engineNs = float64(m.engine.wallNs)
	return m, ctx.Err()
}

// check runs every distinct answer, parsed back from its text, against
// its input on the VM. Served text carries no allocator tags, so for the
// quality set the same request is also allocated in process with the
// daemon's default configuration: its printed program must equal the
// answer byte for byte, and the quality counts come from its tagged run.
// The in-process copy takes the same ingest path as the request that
// produced the answer, because a program parsed from text and the same
// program decoded from binary allocate differently (under one cache key).
func (s *served) check(*tracer) (quality, error) {
	var q quality
	one := func(p servedProgram, ans string, binary, inQuality bool) error {
		in, err := p.input()
		if err != nil {
			return err
		}
		q.checked++
		out, err := ir.ParseProgramString(ans, s.mach)
		if err == nil && s.corrupt != nil {
			s.corrupt(out)
		}
		var ref *regalloc.ExecResult
		if err == nil {
			ref, _, err = execBoth(in, out, s.mach)
		}
		if err != nil {
			q.fail(fmt.Errorf("%s: %w", p.name, err))
			return nil
		}
		if !inQuality {
			return nil
		}
		prog := in.prog
		if !binary {
			text, err := p.text()
			if err != nil {
				return err
			}
			if prog, err = ir.ParseProgramString(text, s.mach); err != nil {
				return err
			}
		}
		lib, rep, err := s.lib.AllocateProgram(context.Background(), prog)
		if err != nil {
			q.fail(fmt.Errorf("%s: in-process allocation: %w", p.name, err))
			return nil
		}
		if printed(lib, s.mach) != ans {
			q.fail(fmt.Errorf("%s: served program differs from the in-process allocation", p.name))
			return nil
		}
		_, got, err := execBoth(in, lib, s.mach)
		if err != nil {
			q.fail(err)
			return nil
		}
		q.add(in, lib, ref, got, rep)
		return nil
	}
	for k, p := range s.hot {
		if err := one(p, s.hotOut[k], false, true); err != nil {
			return q, err
		}
	}
	for k, ans := range s.coldOut {
		if ans == "" {
			continue
		}
		if err := one(s.cold[k], ans, s.coldBin[k], k < qualityCold); err != nil {
			return q, err
		}
	}
	if n := s.reused.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: cold pool exhausted; %d cold picks sent as hot\n", n)
	}
	return q, nil
}

func (s *served) pid() int { return s.srv.pid() }

func (s *served) probeInputs() []input {
	var ins []input
	for _, p := range s.hot {
		if in, err := p.input(); err == nil {
			ins = append(ins, in)
		}
	}
	return ins
}

func (s *served) probeEngine() *regalloc.Engine { return s.lib }

func (s *served) close() error {
	s.cl.CloseIdleConnections()
	return s.srv.stop()
}
