// Package serve implements the allocation service behind cmd/lsra-served:
// a long-lived HTTP/JSON front end over the regalloc Engine, built for
// the paper's thesis that allocation speed is a product feature. The
// daemon amortizes what batch compilation cannot — pooled allocator
// scratch arenas stay warm across requests, and a sharded
// content-addressed result cache (regalloc.ResultCache) short-circuits
// repeated programs entirely — while bounded admission control sheds
// load explicitly (429 + Retry-After) instead of queueing without limit.
//
// Endpoints:
//
//	POST /allocate      allocate one program or a batch (AllocateRequest)
//	GET  /metrics       service counters, queue depth, cache and phase stats
//	GET  /healthz       liveness; reports "draining" during shutdown
//	GET  /config        accepted machines, algorithms and limits
//	GET  /cache/export  hottest cache entries in wire form (replication)
//	POST /cache/seed    install wire-form entries into the cache
//
// Requests carry a priority class ("interactive", the default, or
// "batch"): when every worker is busy, waiting interactive requests are
// always scheduled before waiting batch requests, so latency-sensitive
// traffic preempts bulk traffic in the admission queue. With
// Config.PersistDir set, the result cache gains a disk-backed
// persistent tier (internal/diskcache) behind the in-memory one: warm
// entries survive a restart, and cost-aware admission keeps cheap
// allocations from paying the serialization tax. The export/seed pair
// is what the cluster layer (internal/cluster) uses to replicate hot
// entries between nodes on join, leave and on a timer.
//
// The server is an http.Handler, so it embeds in tests (httptest) and
// custom daemons alike; ListenAndServe and Shutdown add the production
// lifecycle, including graceful drain on SIGTERM (cmd/lsra-served wires
// the signal).
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	regalloc "repro"
	"repro/internal/alloc"
	"repro/internal/diskcache"
	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/target"
)

// Config tunes a Server. The zero value serves every registered
// algorithm on every machine preset with a default-sized cache and
// admission queue.
type Config struct {
	// Algorithms restricts the allocators served; empty means every
	// registered one.
	Algorithms []string
	// CacheEntries bounds the content-addressed result cache: 0 selects
	// regalloc.DefaultCacheEntries, negative disables caching.
	CacheEntries int
	// CacheShards is the cache's lock-shard count (0 = default).
	CacheShards int
	// Workers bounds concurrently executing allocation requests
	// (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting behind the workers; a full
	// queue rejects with 429 + Retry-After (0 = 4 × Workers).
	QueueDepth int
	// Parallelism is each engine's per-program procedure fan-out. The
	// default 1 keeps requests the unit of parallelism, which maximizes
	// throughput under concurrent load.
	Parallelism int
	// Verify runs the symbolic allocation verifier on every result.
	Verify bool
	// PhaseProfile samples per-phase heap allocations (see
	// regalloc.WithPhaseProfile).
	PhaseProfile bool
	// MaxRequestBytes bounds a request body (0 = 8 MiB).
	MaxRequestBytes int64
	// MaxEngines bounds the lazily built engine table (one engine per
	// distinct machine × algorithm, keyed by the machine's canonical
	// Spec). Least-recently-used engines are dropped beyond the bound —
	// only their warm scratch arenas are lost (0 = 64).
	MaxEngines int
	// PersistDir, when set, backs the result cache with a disk tier in
	// this directory (internal/diskcache): entries survive restarts and
	// are admitted cost-aware. Requires caching (CacheEntries >= 0).
	PersistDir string
	// PersistEntries bounds the disk tier (0 = diskcache default).
	PersistEntries int
	// PersistCostFactor is the disk tier's admission bar (0 = diskcache
	// default; negative admits everything).
	PersistCostFactor float64
	// PersistBinary selects the disk tier's binary entry encoding
	// (programs stored as internal/irbin frames instead of printed
	// text). Reads sniff the format per entry, so this is safe to flip
	// on an existing directory.
	PersistBinary bool
}

// Priority is a request's scheduling class.
type Priority uint8

const (
	// PriorityInteractive is the default class: latency-sensitive
	// traffic, always scheduled before waiting batch work.
	PriorityInteractive Priority = iota
	// PriorityBatch marks bulk traffic that yields to interactive
	// requests whenever workers are contended.
	PriorityBatch

	numPriorities
)

// String returns the wire spelling of the class.
func (p Priority) String() string {
	if p == PriorityBatch {
		return "batch"
	}
	return "interactive"
}

// ParsePriority reads a request's priority field; empty selects
// interactive.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "interactive":
		return PriorityInteractive, nil
	case "batch":
		return PriorityBatch, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want interactive or batch)", s)
}

// AllocateRequest is the POST /allocate body. Exactly one of Program or
// Programs must be set; Programs allocates a batch under a single
// admission slot.
type AllocateRequest struct {
	// Machine is a machine spec: a preset name or "tiny:<ints>,<floats>".
	Machine string `json:"machine"`
	// Algorithm is a registry name; empty selects "binpack".
	Algorithm string `json:"algorithm,omitempty"`
	// Program is one program in the textual IR form (ir.ParseProgram).
	Program string `json:"program,omitempty"`
	// Programs is a batch of programs allocated in order.
	Programs []string `json:"programs,omitempty"`
	// Priority is the scheduling class: "interactive" (default) or
	// "batch". Interactive requests preempt batch in the worker queue.
	Priority string `json:"priority,omitempty"`
}

// AllocatedProgram is one program's slice of an AllocateResponse.
type AllocatedProgram struct {
	// Key is the content address of the request (program + machine +
	// configuration).
	Key string `json:"key"`
	// Cached reports whether the result came from the cache without any
	// allocator phase running.
	Cached bool `json:"cached"`
	// Program is the allocated program, printed with machine register
	// names (re-parseable).
	Program string `json:"program"`
	// Report is the engine's allocation report (the original
	// allocation's report on a cache hit).
	Report *regalloc.Report `json:"report"`
}

// AllocateResponse is the POST /allocate reply.
type AllocateResponse struct {
	Machine   string             `json:"machine"`
	Algorithm string             `json:"algorithm"`
	Results   []AllocatedProgram `json:"results"`
	// ElapsedNs is the server-side wall time of the whole request,
	// queueing included.
	ElapsedNs int64 `json:"elapsed_ns"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Metrics is the GET /metrics document.
type Metrics struct {
	UptimeNs int64          `json:"uptime_ns"`
	Requests RequestMetrics `json:"requests"`
	Queue    QueueMetrics   `json:"queue"`
	// Cache is present when caching is enabled (the in-memory tier when
	// a persistent tier is also configured).
	Cache *CacheMetrics `json:"cache,omitempty"`
	// Persist is present when the disk-backed tier is configured: its
	// own hit/miss/entry counters plus cost-aware admission stats.
	Persist *PersistMetrics `json:"persist,omitempty"`
	// Peering counts cache entries moved through /cache/export and
	// /cache/seed (cluster replication traffic).
	Peering PeeringMetrics `json:"peering"`
	// Programs counts allocated programs (cache hits included);
	// CachedPrograms the subset served from the cache; Procs the
	// procedures allocated by actual pipeline runs.
	Programs       uint64 `json:"programs"`
	CachedPrograms uint64 `json:"cached_programs"`
	Procs          uint64 `json:"procs"`
	// Phases aggregates per-phase pipeline cost across every non-cached
	// allocation since startup. Cache hits contribute nothing here —
	// that is the hit path's whole point.
	Phases []regalloc.PhaseStat `json:"phases,omitempty"`
	// AllocWallNs sums the engine-reported wall time of non-cached
	// allocations.
	AllocWallNs int64 `json:"alloc_wall_ns"`
	// Heap reports the process's cumulative heap-allocation counters
	// (runtime/metrics).
	Heap HeapMetrics `json:"heap"`
}

// RequestMetrics counts /allocate request outcomes (the other
// endpoints are unmetered reads). Total = OK + Errors + Rejected +
// Draining + Cancelled.
type RequestMetrics struct {
	Total     uint64 `json:"total"`
	OK        uint64 `json:"ok"`
	Errors    uint64 `json:"errors"`
	Rejected  uint64 `json:"rejected"`  // 429: admission queue full
	Draining  uint64 `json:"draining"`  // 503: received during drain
	Cancelled uint64 `json:"cancelled"` // 499: client went away first
}

// statusClientClosedRequest is nginx's conventional status for a
// request its client abandoned; no client sees it, but it keeps access
// logs and tests honest.
const statusClientClosedRequest = 499

// QueueMetrics describes the admission state at sampling time.
type QueueMetrics struct {
	// Depth is the number of admitted requests waiting for a worker;
	// Executing the number currently allocating.
	Depth     int `json:"depth"`
	Executing int `json:"executing"`
	// Interactive and Batch split Depth by priority class; interactive
	// waiters are always scheduled first.
	Interactive int `json:"interactive"`
	Batch       int `json:"batch"`
	// Capacity is Depth's bound, Workers Executing's.
	Capacity int `json:"capacity"`
	Workers  int `json:"workers"`
}

// CacheMetrics is the cache section of Metrics.
type CacheMetrics struct {
	regalloc.CacheStats
	HitRate float64 `json:"hit_rate"`
}

// PersistMetrics is the disk-tier section of Metrics.
type PersistMetrics struct {
	regalloc.CacheStats
	HitRate   float64                  `json:"hit_rate"`
	Admission diskcache.AdmissionStats `json:"admission"`
}

// PeeringMetrics counts replication traffic through the cache
// export/seed endpoints.
type PeeringMetrics struct {
	// Exported counts entries served by /cache/export; Seeded entries
	// installed by /cache/seed; SeedRejected seed payloads that failed
	// to decode.
	Exported     uint64 `json:"exported"`
	Seeded       uint64 `json:"seeded"`
	SeedRejected uint64 `json:"seed_rejected"`
}

// HeapMetrics is the process heap-allocation section of Metrics.
type HeapMetrics struct {
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

// engineKey identifies one lazily built engine. The machine component
// is the canonical Spec, not the raw request string, so spec aliases
// ("tiny:6,4" under any name resolving to the same machine) share one
// engine.
type engineKey struct {
	machineSpec string
	algorithm   string
}

// engineEntry is one engine-table LRU node.
type engineEntry struct {
	key engineKey
	eng *regalloc.Engine
}

// Server is the allocation service. Construct with New; it serves HTTP
// as an http.Handler and drains gracefully through Shutdown.
type Server struct {
	cfg   Config
	cache regalloc.ResultCache
	disk  *diskcache.Cache // nil unless PersistDir is set
	mux   *http.ServeMux
	start time.Time

	mu        sync.Mutex
	engines   map[engineKey]*list.Element
	engineLRU *list.List // front = most recently used

	slots chan struct{} // admission: executing + queued
	sched *prioSched    // executing, priority-ordered handoff

	// drainMu orders admission against Shutdown: draining flips and
	// wg.Add both happen under it, so wg.Wait (called after the flip)
	// can never race an Add from a request it did not see.
	drainMu  sync.Mutex
	draining bool
	wg       sync.WaitGroup

	httpMu  sync.Mutex
	httpSrv *http.Server

	reqTotal, reqOK, reqErrors     atomic.Uint64
	reqRejected, reqDraining       atomic.Uint64
	reqCancelled                   atomic.Uint64
	programs, cachedPrograms       atomic.Uint64
	procs                          atomic.Uint64
	allocWallNs                    atomic.Int64
	exported, seeded, seedRejected atomic.Uint64

	phaseMu sync.Mutex
	phases  alloc.PhaseTimes
}

// New builds a Server from cfg, normalizing zero fields to their
// documented defaults.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 8 << 20
	}
	for _, a := range cfg.Algorithms {
		ok := false
		for _, have := range regalloc.Algorithms() {
			if a == have {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("serve: unknown algorithm %q (have %v)", a, regalloc.Algorithms())
		}
	}
	if cfg.MaxEngines <= 0 {
		cfg.MaxEngines = 64
	}
	s := &Server{
		cfg:       cfg,
		engines:   make(map[engineKey]*list.Element),
		engineLRU: list.New(),
		slots:     make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		sched:     newPrioSched(cfg.Workers),
		start:     time.Now(),
	}
	if cfg.CacheEntries >= 0 {
		mem := regalloc.NewShardedCache(cfg.CacheEntries, cfg.CacheShards)
		if cfg.PersistDir != "" {
			disk, err := diskcache.Open(diskcache.Config{
				Dir:        cfg.PersistDir,
				MaxEntries: cfg.PersistEntries,
				CostFactor: cfg.PersistCostFactor,
				Binary:     cfg.PersistBinary,
			})
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			s.disk = disk
			s.cache = regalloc.NewTieredCache(mem, disk)
		} else {
			s.cache = mem
		}
	} else if cfg.PersistDir != "" {
		return nil, fmt.Errorf("serve: PersistDir requires caching (CacheEntries >= 0)")
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/allocate", s.handleAllocate)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/config", s.handleConfig)
	s.mux.HandleFunc("/cache/export", s.handleCacheExport)
	s.mux.HandleFunc("/cache/seed", s.handleCacheSeed)
	return s, nil
}

// prioSched hands the worker slots out in strict priority order: a
// freed slot goes to the longest-waiting interactive request if any is
// queued, else to the longest-waiting batch request. Slots are handed
// over directly (the releaser wakes exactly one waiter without
// decrementing the running count), so priority is enforced at every
// handoff, not just on arrival.
type prioSched struct {
	mu      sync.Mutex
	workers int
	running int
	waiters [numPriorities]list.List // of chan struct{}, FIFO per class
}

func newPrioSched(workers int) *prioSched {
	return &prioSched{workers: workers}
}

// acquire blocks until a worker slot is granted or ctx is done.
func (p *prioSched) acquire(ctx context.Context, pr Priority) error {
	p.mu.Lock()
	if p.running < p.workers {
		p.running++
		p.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	el := p.waiters[pr].PushBack(ch)
	p.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		select {
		case <-ch:
			// Granted between ctx.Done and taking the lock: we own a
			// slot nobody will use — pass it on.
			p.mu.Unlock()
			p.release()
		default:
			p.waiters[pr].Remove(el)
			p.mu.Unlock()
		}
		return ctx.Err()
	}
}

// release frees a worker slot, handing it to the highest-priority
// waiter if any.
func (p *prioSched) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := Priority(0); c < numPriorities; c++ {
		if el := p.waiters[c].Front(); el != nil {
			p.waiters[c].Remove(el)
			close(el.Value.(chan struct{})) // slot handed over; running unchanged
			return
		}
	}
	p.running--
}

// snapshot samples the scheduler for /metrics.
func (p *prioSched) snapshot() (running int, waiting [numPriorities]int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	running = p.running
	for c := range p.waiters {
		waiting[c] = p.waiters[c].Len()
	}
	return
}

// Cache returns the server's result cache (nil when disabled).
func (s *Server) Cache() regalloc.ResultCache { return s.cache }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ListenAndServe runs the service on addr until Shutdown (which returns
// http.ErrServerClosed here) or a listener error. The server carries
// read/idle timeouts so slow-loris connections cannot pin resources
// indefinitely.
func (s *Server) ListenAndServe(addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.ListenAndServe()
}

// Shutdown drains the server: new requests are refused with 503, every
// admitted request runs to completion (bounded by ctx), and the HTTP
// listener (if ListenAndServe is running) closes. Safe to call without
// a listener, e.g. under httptest.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with requests in flight: %w", ctx.Err())
	}
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		return srv.Shutdown(ctx)
	}
	return nil
}

// engine returns (building on first use) the engine for one
// machine/algorithm pair. Engines are kept in an LRU table bounded by
// Config.MaxEngines: each holds a pooled allocator whose scratch
// arenas stay warm across requests, and evicting one only forfeits
// that warmth.
func (s *Server) engine(machine, algorithm string) (*regalloc.Engine, *regalloc.Machine, error) {
	if algorithm == "" {
		algorithm = "binpack"
	}
	if len(s.cfg.Algorithms) > 0 {
		ok := false
		for _, a := range s.cfg.Algorithms {
			if a == algorithm {
				ok = true
				break
			}
		}
		if !ok {
			return nil, nil, fmt.Errorf("algorithm %q not served (have %v)", algorithm, s.cfg.Algorithms)
		}
	}
	// Parse outside the lock (hostile specs are rejected here, bounded
	// by target.MaxTinyRegs) and key the table by the machine's
	// canonical Spec so alias spellings cannot multiply engines.
	mach, err := regalloc.ParseMachine(machine)
	if err != nil {
		return nil, nil, err
	}
	key := engineKey{machineSpec: mach.Spec(), algorithm: algorithm}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.engines[key]; ok {
		s.engineLRU.MoveToFront(el)
		e := el.Value.(*engineEntry).eng
		return e, e.Machine(), nil
	}
	opts := []regalloc.Option{
		regalloc.WithAlgorithm(algorithm),
		regalloc.WithParallelism(s.cfg.Parallelism),
		regalloc.WithVerify(s.cfg.Verify),
		regalloc.WithPhaseProfile(s.cfg.PhaseProfile),
	}
	if s.cache != nil {
		opts = append(opts, regalloc.WithCache(s.cache))
	}
	e, err := regalloc.New(mach, opts...)
	if err != nil {
		return nil, nil, err
	}
	s.engines[key] = s.engineLRU.PushFront(&engineEntry{key: key, eng: e})
	// Bound the table: a client sweeping distinct machine specs must
	// not grow server memory without limit. Evicting an engine only
	// discards its warm scratch arenas.
	for s.engineLRU.Len() > s.cfg.MaxEngines {
		back := s.engineLRU.Back()
		s.engineLRU.Remove(back)
		delete(s.engines, back.Value.(*engineEntry).key)
	}
	return e, mach, nil
}

// admitResult is admit's outcome.
type admitResult uint8

const (
	admitted      admitResult = iota
	admitFull                 // queue at capacity: 429
	admitDraining             // server shutting down: 503
)

// admit reserves an admission slot. Taking the slot and wg.Add happen
// under drainMu, so Shutdown's wg.Wait can never interleave with an
// Add it has not observed (sync.WaitGroup forbids Add concurrent with
// Wait at counter zero).
func (s *Server) admit() admitResult {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return admitDraining
	}
	select {
	case s.slots <- struct{}{}:
		s.wg.Add(1)
		return admitted
	default:
		return admitFull
	}
}

// release returns an admission slot.
func (s *Server) release() {
	<-s.slots
	s.wg.Done()
}

// isDraining reports whether Shutdown has started.
func (s *Server) isDraining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// ContentTypeBinaryIR selects the binary request form on POST
// /allocate: the body is one or more concatenated internal/irbin
// frames (self-delimiting, so no envelope is needed), with machine,
// algorithm and priority carried as query parameters. The text parser
// is skipped entirely — this is the wire form the corpus ladder and
// high-throughput clients use.
const ContentTypeBinaryIR = "application/x-lsra-ir"

// arenaPool holds per-request binary decode arenas. An arena retains
// the capacity of the largest program it has decoded, so a warmed pool
// serves steady-state binary traffic without decode allocations.
var arenaPool = sync.Pool{New: func() any { return irbin.NewArena() }}

func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	s.reqTotal.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, ContentTypeBinaryIR) {
		s.handleAllocateBinary(w, r)
		return
	}
	start := time.Now()
	// Read the whole body before taking an admission slot: the read
	// proceeds at the client's pace (bounded by MaxRequestBytes and the
	// listener's ReadTimeout), and a slow uploader must not park itself
	// inside the admission window holding a slot.
	var req AllocateRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		// Over-limit is a distinct, retryable-after-splitting condition:
		// tell the client 413, not 400.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxRequestBytes))
			return
		}
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	texts := req.Programs
	if req.Program != "" {
		if len(texts) > 0 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("set either program or programs, not both"))
			return
		}
		texts = []string{req.Program}
	}
	if len(texts) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("no program in request"))
		return
	}
	prio, err := ParsePriority(req.Priority)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	switch s.admit() {
	case admitDraining:
		s.reqDraining.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining"})
		return
	case admitFull:
		s.reqRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "admission queue full; retry later"})
		return
	case admitted:
	}
	defer s.release()

	eng, mach, err := s.engine(req.Machine, req.Algorithm)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	// Wait (queued) for an execution slot; the admission bound above
	// caps how many requests can be waiting here, and the scheduler
	// hands freed slots to interactive waiters before batch ones. A
	// client that gives up while queued releases its slot instead of
	// occupying a worker with work nobody will read.
	if err := s.sched.acquire(r.Context(), prio); err != nil {
		s.reqCancelled.Add(1)
		writeJSON(w, statusClientClosedRequest, ErrorResponse{Error: "client went away while queued"})
		return
	}
	defer s.sched.release()

	resp := AllocateResponse{Machine: req.Machine, Algorithm: eng.Algorithm()}
	for i, text := range texts {
		prog, err := ir.ParseProgramString(text, mach)
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("program %d: %w", i, err))
			return
		}
		if err := ir.ValidateProgram(prog, mach); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("program %d: %w", i, err))
			return
		}
		out, rep, key, err := eng.AllocateCachedKey(r.Context(), prog)
		if err != nil {
			// A cancelled client is not a server error: classify it
			// apart so the error-rate metric stays meaningful.
			if r.Context().Err() != nil {
				s.reqCancelled.Add(1)
				writeJSON(w, statusClientClosedRequest, ErrorResponse{Error: "client went away mid-allocation"})
				return
			}
			s.fail(w, http.StatusInternalServerError, fmt.Errorf("program %d: %w", i, err))
			return
		}
		s.account(rep)
		var sb strings.Builder
		(&ir.Printer{Mach: mach}).WriteProgram(&sb, out)
		resp.Results = append(resp.Results, AllocatedProgram{
			Key:     string(key),
			Cached:  rep.Cached,
			Program: sb.String(),
			Report:  rep,
		})
	}
	resp.ElapsedNs = time.Since(start).Nanoseconds()
	s.reqOK.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// handleAllocateBinary is the Content-Type: application/x-lsra-ir arm
// of POST /allocate. It mirrors the text arm's admission and
// scheduling exactly; only the program front end differs — frames
// decode zero-copy into a pooled arena instead of running the text
// parser. The decoded program aliases the request body and the arena,
// which is safe because the engine clones procedures before rewriting
// and the response carries printed text.
func (s *Server) handleAllocateBinary(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query()
	prio, err := ParsePriority(q.Get("priority"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxRequestBytes))
			return
		}
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(body) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("no program in request"))
		return
	}

	switch s.admit() {
	case admitDraining:
		s.reqDraining.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining"})
		return
	case admitFull:
		s.reqRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "admission queue full; retry later"})
		return
	case admitted:
	}
	defer s.release()

	eng, mach, err := s.engine(q.Get("machine"), q.Get("algorithm"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	if err := s.sched.acquire(r.Context(), prio); err != nil {
		s.reqCancelled.Add(1)
		writeJSON(w, statusClientClosedRequest, ErrorResponse{Error: "client went away while queued"})
		return
	}
	defer s.sched.release()

	arena := arenaPool.Get().(*irbin.Arena)
	defer arenaPool.Put(arena)
	resp := AllocateResponse{Machine: q.Get("machine"), Algorithm: eng.Algorithm()}
	rest := body
	for i := 0; len(rest) > 0; i++ {
		prog, n, err := arena.Decode(rest)
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("program %d: %w", i, err))
			return
		}
		rest = rest[n:]
		if err := ir.ValidateProgram(prog, mach); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("program %d: %w", i, err))
			return
		}
		out, rep, key, err := eng.AllocateCachedKey(r.Context(), prog)
		if err != nil {
			if r.Context().Err() != nil {
				s.reqCancelled.Add(1)
				writeJSON(w, statusClientClosedRequest, ErrorResponse{Error: "client went away mid-allocation"})
				return
			}
			s.fail(w, http.StatusInternalServerError, fmt.Errorf("program %d: %w", i, err))
			return
		}
		s.account(rep)
		var sb strings.Builder
		(&ir.Printer{Mach: mach}).WriteProgram(&sb, out)
		resp.Results = append(resp.Results, AllocatedProgram{
			Key:     string(key),
			Cached:  rep.Cached,
			Program: sb.String(),
			Report:  rep,
		})
	}
	resp.ElapsedNs = time.Since(start).Nanoseconds()
	s.reqOK.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// account folds one allocation report into the service metrics. Cache
// hits count as served programs but contribute no phase work: the
// entire point of the hit path is that no pipeline phase ran.
func (s *Server) account(rep *regalloc.Report) {
	s.programs.Add(1)
	if rep.Cached {
		s.cachedPrograms.Add(1)
		return
	}
	s.procs.Add(uint64(len(rep.Procs)))
	s.allocWallNs.Add(rep.WallTime.Nanoseconds())
	s.phaseMu.Lock()
	s.phases.Add(rep.Totals.Phases)
	s.phaseMu.Unlock()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		// Not via fail(): RequestMetrics meters /allocate only, and a
		// stray POST here must not skew its error rate.
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

// Metrics samples the service counters.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		UptimeNs: time.Since(s.start).Nanoseconds(),
		Requests: RequestMetrics{
			Total:     s.reqTotal.Load(),
			OK:        s.reqOK.Load(),
			Errors:    s.reqErrors.Load(),
			Rejected:  s.reqRejected.Load(),
			Draining:  s.reqDraining.Load(),
			Cancelled: s.reqCancelled.Load(),
		},
		Programs:       s.programs.Load(),
		CachedPrograms: s.cachedPrograms.Load(),
		Procs:          s.procs.Load(),
		AllocWallNs:    s.allocWallNs.Load(),
		Peering: PeeringMetrics{
			Exported:     s.exported.Load(),
			Seeded:       s.seeded.Load(),
			SeedRejected: s.seedRejected.Load(),
		},
	}
	running, waiting := s.sched.snapshot()
	m.Queue = QueueMetrics{
		Depth:       waiting[PriorityInteractive] + waiting[PriorityBatch],
		Executing:   running,
		Interactive: waiting[PriorityInteractive],
		Batch:       waiting[PriorityBatch],
		Capacity:    s.cfg.QueueDepth,
		Workers:     s.cfg.Workers,
	}
	if s.cache != nil {
		st := s.cache.Stats()
		if tc, ok := s.cache.(*regalloc.TieredCache); ok {
			st, _ = tc.TierStats()
		}
		m.Cache = &CacheMetrics{CacheStats: st, HitRate: st.HitRate()}
	}
	if s.disk != nil {
		st := s.disk.Stats()
		m.Persist = &PersistMetrics{CacheStats: st, HitRate: st.HitRate(), Admission: s.disk.Admission()}
	}
	s.phaseMu.Lock()
	pt := s.phases
	s.phaseMu.Unlock()
	total := pt.TotalNs()
	for i := range pt {
		ps := regalloc.PhaseStat{
			Phase:  alloc.Phase(i).String(),
			Ns:     pt[i].Ns,
			Allocs: pt[i].Allocs,
			Bytes:  pt[i].Bytes,
		}
		if total > 0 {
			ps.Share = float64(pt[i].Ns) / float64(total)
		}
		m.Phases = append(m.Phases, ps)
	}
	allocs, bytes := alloc.HeapCounters()
	m.Heap = HeapMetrics{Allocs: allocs, Bytes: bytes}
	return m
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.isDraining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": status})
}

// CacheExportResponse is the GET /cache/export document: the hottest
// cache entries in wire form (diskcache.Entry), newest first.
type CacheExportResponse struct {
	Entries []json.RawMessage `json:"entries"`
}

// CacheSeedRequest is the POST /cache/seed body: wire-form entries to
// install. CacheSeedResponse reports how many were installed.
type CacheSeedRequest struct {
	Entries []json.RawMessage `json:"entries"`
}

// CacheSeedResponse is the POST /cache/seed reply.
type CacheSeedResponse struct {
	Seeded   int `json:"seeded"`
	Rejected int `json:"rejected"`
}

// handleCacheExport serves the hottest n (default 64) cache entries in
// wire form — the pull side of cluster replication.
func (s *Server) handleCacheExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "GET only"})
		return
	}
	n := 64
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad n"})
			return
		}
		n = v
	}
	resp := CacheExportResponse{Entries: []json.RawMessage{}}
	if hl, ok := s.cache.(regalloc.HotLister); ok {
		for _, he := range hl.Hottest(n) {
			data, err := diskcache.Encode(he.Key, he.Entry)
			if err != nil {
				continue
			}
			resp.Entries = append(resp.Entries, data)
		}
	}
	s.exported.Add(uint64(len(resp.Entries)))
	writeJSON(w, http.StatusOK, resp)
}

// handleCacheSeed installs wire-form entries into the cache — the push
// side of cluster replication. Entries that fail to decode are counted
// and skipped, never fatal: a partially corrupt replication batch still
// warms what it can.
func (s *Server) handleCacheSeed(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	if s.cache == nil {
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: "caching disabled"})
		return
	}
	var req CacheSeedRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad seed body: %v", err)})
		return
	}
	var resp CacheSeedResponse
	for _, raw := range req.Entries {
		key, entry, err := diskcache.Decode(raw)
		if err != nil {
			resp.Rejected++
			continue
		}
		s.cache.Put(key, entry)
		resp.Seeded++
	}
	s.seeded.Add(uint64(resp.Seeded))
	s.seedRejected.Add(uint64(resp.Rejected))
	writeJSON(w, http.StatusOK, resp)
}

// configDoc is the GET /config document: what the daemon serves.
type configDoc struct {
	Machines     []string `json:"machines"`
	Algorithms   []string `json:"algorithms"`
	Workers      int      `json:"workers"`
	QueueDepth   int      `json:"queue_depth"`
	CacheEntries int      `json:"cache_entries"`
	Verify       bool     `json:"verify"`
	// Priorities lists the accepted scheduling classes; Persist reports
	// whether a disk-backed cache tier is configured.
	Priorities []string `json:"priorities"`
	Persist    bool     `json:"persist"`
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	algos := s.cfg.Algorithms
	if len(algos) == 0 {
		algos = regalloc.Algorithms()
	}
	cacheEntries := 0
	if s.cache != nil {
		cacheEntries = s.cache.Stats().Capacity
	}
	writeJSON(w, http.StatusOK, configDoc{
		Machines:     target.PresetNames(),
		Algorithms:   algos,
		Workers:      s.cfg.Workers,
		QueueDepth:   s.cfg.QueueDepth,
		CacheEntries: cacheEntries,
		Verify:       s.cfg.Verify,
		Priorities:   []string{PriorityInteractive.String(), PriorityBatch.String()},
		Persist:      s.disk != nil,
	})
}

// fail writes a JSON error reply and counts it.
func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.reqErrors.Add(1)
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
