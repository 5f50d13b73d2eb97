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
//
// POST /allocate takes a program either as JSON (AllocateRequest, the
// textual IR) or as concatenated internal/irbin frames under
// ContentTypeBinaryIR; both bodies share one admission path, one engine
// table and one in-memory cache, so a program sent either way has the
// same key and the same answer.
//
// Admitted requests wait for a worker in arrival order, and a client
// that gives up while queued frees its place. A repeated single-program
// request skips that wait: once its program has been answered from the
// cache, the answer is kept under a key of the request's bytes (an
// alias entry, regalloc.Engine.BytesKey), and a later request with the
// same bytes is answered from it right after admission, without a
// worker, a parse, a cache key, a decode or a print. Only entries that
// were hit get an alias, so the printed text of never-repeated programs
// is not kept. The cache lives only in memory: a restarted daemon
// starts cold.
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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	regalloc "repro"
	"repro/internal/alloc"
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
	// CacheEntries bounds the content-addressed result cache, alias
	// entries included: 0 selects regalloc.DefaultCacheEntries,
	// negative disables caching (and with it the alias hit path).
	CacheEntries int
	// Workers bounds concurrently executing allocation requests
	// (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting behind the workers; a full
	// queue rejects with 429 + Retry-After (0 = 4 × Workers).
	QueueDepth int
	// Verify runs the symbolic allocation verifier on every result.
	Verify bool
	// MaxRequestBytes bounds a request body (0 = 8 MiB).
	MaxRequestBytes int64
	// MaxEngines bounds the lazily built engine table (one engine per
	// distinct machine × algorithm, keyed by the machine's canonical
	// Spec). Least-recently-used engines are dropped beyond the bound —
	// only their warm scratch arenas are lost (0 = 64).
	MaxEngines int
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
	// Cache is present when caching is enabled.
	Cache *CacheMetrics `json:"cache,omitempty"`
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
	// Depth is the number of admitted requests not executing (waiting
	// for a worker); Executing the number currently allocating.
	Depth     int `json:"depth"`
	Executing int `json:"executing"`
	// Capacity is Depth's bound, Workers Executing's.
	Capacity int `json:"capacity"`
	Workers  int `json:"workers"`
}

// CacheMetrics is the cache section of Metrics.
type CacheMetrics struct {
	regalloc.CacheStats
	HitRate float64 `json:"hit_rate"`
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
	cache *regalloc.ResultCache // nil when caching is disabled
	mux   *http.ServeMux
	start time.Time

	mu        sync.Mutex
	engines   map[engineKey]*list.Element
	engineLRU *list.List        // front = most recently used
	specs     map[string]string // machine as requested → its canonical Spec

	slots   chan struct{} // admission: executing + queued
	workers chan struct{} // executing

	// drainMu orders admission against Shutdown: draining flips and
	// wg.Add both happen under it, so wg.Wait (called after the flip)
	// can never race an Add from a request it did not see.
	drainMu  sync.Mutex
	draining bool
	wg       sync.WaitGroup

	httpMu  sync.Mutex
	httpSrv *http.Server

	reqTotal, reqOK, reqErrors atomic.Uint64
	reqRejected, reqDraining   atomic.Uint64
	reqCancelled               atomic.Uint64
	programs, cachedPrograms   atomic.Uint64
	procs                      atomic.Uint64
	allocWallNs                atomic.Int64

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
		specs:     make(map[string]string),
		slots:     make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		workers:   make(chan struct{}, cfg.Workers),
		start:     time.Now(),
	}
	if cfg.CacheEntries >= 0 {
		s.cache = regalloc.NewShardedCache(cfg.CacheEntries)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/allocate", s.handleAllocate)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/config", s.handleConfig)
	return s, nil
}

// Cache returns the server's result cache (nil when disabled).
func (s *Server) Cache() *regalloc.ResultCache { return s.cache }

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
	// A spelling seen before skips the parse and the Spec rendering,
	// about 30 µs a request on x86-8, as much as hashing its body.
	s.mu.Lock()
	if spec, ok := s.specs[machine]; ok {
		if el, ok := s.engines[engineKey{machineSpec: spec, algorithm: algorithm}]; ok {
			s.engineLRU.MoveToFront(el)
			e := el.Value.(*engineEntry).eng
			s.mu.Unlock()
			return e, e.Machine(), nil
		}
	}
	s.mu.Unlock()
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
	// The spelling table is bounded like the engine table: short
	// spellings only, and it starts over when full.
	if len(machine) <= maxSpellingLen {
		if len(s.specs) >= 4*s.cfg.MaxEngines {
			clear(s.specs)
		}
		s.specs[machine] = key.machineSpec
	}
	if el, ok := s.engines[key]; ok {
		s.engineLRU.MoveToFront(el)
		e := el.Value.(*engineEntry).eng
		return e, e.Machine(), nil
	}
	opts := []regalloc.Option{
		regalloc.WithAlgorithm(algorithm),
		regalloc.WithParallelism(engineParallelism),
		regalloc.WithVerify(s.cfg.Verify),
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

// maxSpellingLen bounds the machine spellings Server.engine remembers:
// a valid spelling can be padded without limit ("tiny:0006,4").
const maxSpellingLen = 64

// engineParallelism is each engine's per-program procedure fan-out: one
// keeps requests the unit of parallelism, which maximizes throughput
// under concurrent load.
const engineParallelism = 1

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
// frames (self-delimiting, so no envelope is needed), with machine and
// algorithm carried as query parameters. The text parser
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
		s.failBody(w, err)
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
	var alias []byte
	if req.Program != "" {
		alias = []byte(req.Program)
	}
	s.allocate(w, r, start, req.Machine, req.Algorithm, aliasText, alias, func(i int, mach *regalloc.Machine) (*ir.Program, bool, error) {
		if i == len(texts) {
			return nil, false, nil
		}
		prog, err := ir.ParseProgramString(texts[i], mach)
		return prog, true, err
	})
}

// handleAllocateBinary is the Content-Type: application/x-lsra-ir arm
// of POST /allocate. Only the program front end differs from the text
// arm: frames decode zero-copy into a pooled arena instead of running
// the text parser. The decoded program aliases the request body and the
// arena, which is safe because the engine clones procedures before
// rewriting and the response carries printed text.
func (s *Server) handleAllocateBinary(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		s.failBody(w, err)
		return
	}
	if len(body) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("no program in request"))
		return
	}
	// The arena is taken with the first frame, once the request holds a
	// worker, so queued requests do not pin pooled arenas.
	var arena *irbin.Arena
	defer func() {
		if arena != nil {
			arenaPool.Put(arena)
		}
	}()
	// Only a body of exactly one frame has an alias; a batch, or a
	// frame followed by bytes that will not decode, takes the full path.
	var alias []byte
	if n, err := irbin.FrameSize(body); err == nil && n == len(body) {
		alias = body
	}
	rest := body
	s.allocate(w, r, start, q.Get("machine"), q.Get("algorithm"), aliasBinary, alias, func(int, *regalloc.Machine) (*ir.Program, bool, error) {
		if len(rest) == 0 {
			return nil, false, nil
		}
		if arena == nil {
			arena = arenaPool.Get().(*irbin.Arena)
		}
		prog, n, err := arena.Decode(rest)
		if err != nil {
			return nil, true, err
		}
		rest = rest[n:]
		return prog, true, nil
	})
}

// failBody answers a body that could not be read or decoded. Over-limit
// is a distinct, retryable-after-splitting condition: the client gets
// 413, not 400.
func (s *Server) failBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxRequestBytes))
		return
	}
	s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
}

// nextProgram yields a request's i-th program, parsed for mach; ok is
// false once the body holds no more programs. An error is the client's:
// it is answered 400.
type nextProgram func(i int, mach *regalloc.Machine) (prog *ir.Program, ok bool, err error)

// The body forms an alias key distinguishes: equal bytes parse to equal
// programs only within one form.
const (
	aliasText   = "text"
	aliasBinary = "binary"
)

// allocate is the part of POST /allocate both body forms share, run
// once the body has been read: admission, the engine lookup, the alias
// probe, the wait for a worker, and then, per program from next,
// validation, the cached allocation and the printed result. alias is
// the program bytes of a single-program request in the given form (nil
// for a batch): a request whose alias entry exists is answered from it
// before the worker wait, and a single program answered from the cache
// stores one.
func (s *Server) allocate(w http.ResponseWriter, r *http.Request, start time.Time, machine, algorithm, form string, alias []byte, next nextProgram) {
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

	eng, mach, err := s.engine(machine, algorithm)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	// The alias probe: the entry was made from these very bytes, which
	// were validated and allocated then, so the stored answer stands.
	// A probe that misses is not counted; the cache lookup below counts
	// this program's one outcome.
	var aliasKey regalloc.CacheKey
	if alias != nil && s.cache != nil {
		aliasKey = eng.BytesKey(form, alias)
		if ent, ok := s.cache.Probe(aliasKey); ok {
			s.account(ent.Report)
			s.reqOK.Add(1)
			writeJSON(w, http.StatusOK, AllocateResponse{
				Machine:   machine,
				Algorithm: eng.Algorithm(),
				Results:   []AllocatedProgram{{Key: string(ent.Key), Cached: true, Program: ent.Printed, Report: ent.Report}},
				ElapsedNs: time.Since(start).Nanoseconds(),
			})
			return
		}
	}

	// Wait (queued) for a worker; the admission bound above caps how
	// many requests can be waiting here. A client that gives up while
	// queued releases its slot instead of occupying a worker with work
	// nobody will read.
	select {
	case s.workers <- struct{}{}:
	case <-r.Context().Done():
		s.reqCancelled.Add(1)
		writeJSON(w, statusClientClosedRequest, ErrorResponse{Error: "client went away while queued"})
		return
	}
	defer func() { <-s.workers }()

	resp := AllocateResponse{Machine: machine, Algorithm: eng.Algorithm()}
	for i := 0; ; i++ {
		prog, ok, err := next(i, mach)
		if !ok {
			break
		}
		if err == nil {
			err = ir.ValidateProgram(prog, mach)
		}
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("program %d: %w", i, err))
			return
		}
		out, rep, key, err := eng.AllocateCached(r.Context(), prog)
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
	// The first hit of a single program stores its alias. The report is
	// AllocateCached's own copy, so the entry shares it with this reply,
	// which only reads it.
	if aliasKey != "" && len(resp.Results) == 1 && resp.Results[0].Cached {
		res := resp.Results[0]
		s.cache.Put(aliasKey, &regalloc.CachedAllocation{Key: regalloc.CacheKey(res.Key), Printed: res.Program, Report: res.Report})
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
	writeIndentedJSON(w, http.StatusOK, s.Metrics())
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
	}
	// The two lengths are read apart, so a request admitted or started
	// in between can make them disagree by one; clamp the difference.
	executing := len(s.workers)
	m.Queue = QueueMetrics{
		Depth:     max(len(s.slots)-executing, 0),
		Executing: executing,
		Capacity:  s.cfg.QueueDepth,
		Workers:   s.cfg.Workers,
	}
	if s.cache != nil {
		st := s.cache.Stats()
		m.Cache = &CacheMetrics{CacheStats: st, HitRate: st.HitRate()}
	}
	s.phaseMu.Lock()
	pt := s.phases
	s.phaseMu.Unlock()
	m.Phases = pt.Stats()
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
	writeIndentedJSON(w, code, map[string]string{"status": status})
}

// configDoc is the GET /config document: what the daemon serves.
type configDoc struct {
	Machines     []string `json:"machines"`
	Algorithms   []string `json:"algorithms"`
	Workers      int      `json:"workers"`
	QueueDepth   int      `json:"queue_depth"`
	CacheEntries int      `json:"cache_entries"`
	Verify       bool     `json:"verify"`
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
	writeIndentedJSON(w, http.StatusOK, configDoc{
		Machines:     target.PresetNames(),
		Algorithms:   algos,
		Workers:      s.cfg.Workers,
		QueueDepth:   s.cfg.QueueDepth,
		CacheEntries: cacheEntries,
		Verify:       s.cfg.Verify,
	})
}

// fail writes a JSON error reply and counts it.
func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.reqErrors.Add(1)
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// writeJSON writes v compactly, as every /allocate reply and every
// error is written: programs read them, and indenting a reply's
// printed program costs more than encoding it.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeIndentedJSON writes v indented, for the documents people read:
// /metrics, /config and /healthz.
func writeIndentedJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
