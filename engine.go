package regalloc

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/alloc"
)

// Engine is a reusable, concurrency-safe allocation pipeline for one
// machine. Construct it once with New and use it for any number of
// procedures or programs: each worker goroutine draws a pooled allocator
// instance and dead-code-elimination scratch whose buffers persist
// across allocations, so the batch hot path stops re-allocating scan and
// liveness state per procedure.
type Engine struct {
	mach        *Machine
	algorithm   string
	factory     alloc.Factory
	pipe        alloc.Pipeline // the §3 pass ordering, configured by the options
	parallelism int
	cache       *ResultCache
	head        []byte // keyHead, rendered once

	// idle holds the workers not running a procedure. It grows to the
	// peak concurrency and never shrinks: a worker's scratch arenas are
	// sized by the largest procedure it has seen, and a pool the
	// garbage collector may empty would regrow them after every other
	// GC cycle.
	mu   sync.Mutex
	idle []*worker
}

// worker is the pooled state of one concurrent pipeline run: an
// allocator instance and the pipeline scratch (clone arena, DCE scratch
// and phase timer) it runs on.
type worker struct {
	a  Allocator
	sc alloc.Scratch
}

// Option configures an Engine at construction time.
type Option func(*Engine) error

// WithAlgorithm selects the allocator by registry name (see Algorithms
// for the available set; the built-ins are "binpack", "twopass",
// "coloring" and "linearscan"). The default is "binpack", the paper's
// second-chance allocator.
func WithAlgorithm(name string) Option {
	return func(e *Engine) error {
		e.algorithm = name
		return nil
	}
}

// WithForwardStores toggles local store-to-load forwarding on the
// allocated code (the §2.4 follow-on cleanup; off by default).
func WithForwardStores(on bool) Option {
	return func(e *Engine) error {
		e.pipe.ForwardStores = on
		return nil
	}
}

// WithVerify toggles the symbolic allocation verifier on every result
// (on by default).
func WithVerify(on bool) Option {
	return func(e *Engine) error {
		e.pipe.Verify = on
		return nil
	}
}

// WithParallelism bounds the worker pool AllocateProgram fans
// procedures out over. Values below 1 select runtime.GOMAXPROCS(0),
// which is also the default. Results are deterministic regardless of
// the parallelism level.
func WithParallelism(n int) Option {
	return func(e *Engine) error {
		if n < 1 {
			n = runtime.GOMAXPROCS(0)
		}
		e.parallelism = n
		return nil
	}
}

// WithPhaseProfile annotates the per-phase nanosecond timings every
// Report carries with heap-allocation counters, sampled from
// runtime/metrics at each phase boundary. Sampling is cheap but not
// free, so it is off by default; timings alone are always collected.
// Every allocator marks its phases on the pipeline's Timer, so the
// counters cover registered allocators as well as the built-ins. Heap
// counters are process-global, so per-phase allocation figures are only
// exact under WithParallelism(1).
func WithPhaseProfile(on bool) Option {
	return func(e *Engine) error {
		e.pipe.ProfileAllocs = on
		return nil
	}
}

// ProcReport is one procedure's slice of a Report.
type ProcReport struct {
	Proc    string        `json:"proc"`
	Stats   Stats         `json:"stats"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Report aggregates one AllocateProgram run: per-procedure statistics in
// input order, their totals, the per-phase cost breakdown, and the batch
// wall time. HeapAllocs/HeapBytes are the process's heap-allocation
// deltas over the batch (approximate: concurrent activity outside the
// engine is included), the coarse steady-state allocs-per-batch figure
// the bench suite regresses on.
type Report struct {
	Algorithm   string        `json:"algorithm"`
	Machine     string        `json:"machine"`
	Parallelism int           `json:"parallelism"`
	Procs       []ProcReport  `json:"procs"`
	Totals      Stats         `json:"totals"`
	PhaseStats  []PhaseStat   `json:"phase_stats,omitempty"`
	HeapAllocs  uint64        `json:"heap_allocs"`
	HeapBytes   uint64        `json:"heap_bytes"`
	WallTime    time.Duration `json:"wall_time_ns"`
	// Cached marks a report returned from the result cache by
	// AllocateCached: the statistics describe the original allocation
	// that populated the entry, and no pipeline phase ran for this
	// request.
	Cached bool `json:"cached,omitempty"`
}

// New constructs an Engine for a machine. With no options it mirrors
// the paper's experimental pipeline: second-chance binpacking with DCE,
// peephole and verification on, fanning batches out over
// runtime.GOMAXPROCS(0) workers. New builds the first worker itself, so
// a factory that returns a nil allocator is an error here rather than a
// panic in the first batch.
func New(mach *Machine, opts ...Option) (*Engine, error) {
	if mach == nil {
		return nil, fmt.Errorf("regalloc: New: nil machine")
	}
	e := &Engine{
		mach:        mach,
		algorithm:   "binpack",
		pipe:        alloc.Pipeline{Mach: mach, Verify: true},
		parallelism: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(e); err != nil {
			return nil, err
		}
	}
	factory, ok := alloc.Lookup(e.algorithm)
	if !ok {
		return nil, fmt.Errorf("regalloc: unknown algorithm %q (have %v)", e.algorithm, Algorithms())
	}
	e.factory = factory
	e.head = e.keyHead()
	w, err := e.newWorker()
	if err != nil {
		return nil, err
	}
	e.idle = append(e.idle, w)
	return e, nil
}

// newWorker builds a worker around a fresh allocator from the factory.
func (e *Engine) newWorker() (*worker, error) {
	a := e.factory(e.mach)
	if a == nil {
		return nil, fmt.Errorf("regalloc: algorithm %q: factory returned a nil allocator", e.algorithm)
	}
	return &worker{a: a}, nil
}

// getWorker takes an idle worker, or builds one when every worker is
// busy.
func (e *Engine) getWorker() (*worker, error) {
	e.mu.Lock()
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.mu.Unlock()
		return w, nil
	}
	e.mu.Unlock()
	return e.newWorker()
}

// putWorker returns w to the idle list.
func (e *Engine) putWorker(w *worker) {
	e.mu.Lock()
	e.idle = append(e.idle, w)
	e.mu.Unlock()
}

// Machine returns the machine the engine allocates for.
func (e *Engine) Machine() *Machine { return e.mach }

// Algorithm returns the registry name of the engine's allocator.
func (e *Engine) Algorithm() string { return e.algorithm }

// AllocateProc runs the §3 pipeline (alloc.Pipeline) on one procedure
// with a pooled allocator and returns the rewritten procedure with
// statistics. The input is not modified. Safe for concurrent use.
func (e *Engine) AllocateProc(p *Proc) (*Result, error) {
	w, err := e.getWorker()
	if err != nil {
		return nil, err
	}
	defer e.putWorker(w)
	return e.pipe.Run(w.a, &w.sc, p)
}

// AllocateProgram allocates every procedure of prog over the engine's
// bounded worker pool and returns the allocated program plus an
// aggregate report. Results are deterministic: procedures, report rows
// and the output program are in prog.Procs order regardless of
// parallelism, and on failure the error of the earliest failing
// procedure is returned. Cancelling ctx stops the batch early with
// ctx's error.
func (e *Engine) AllocateProgram(ctx context.Context, prog *Program) (*Program, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	heapAllocs0, heapBytes0 := alloc.HeapCounters()
	procs := prog.Procs
	results := make([]*Result, len(procs))
	elapsed := make([]time.Duration, len(procs))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		errIndex = len(procs)
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIndex {
			firstErr, errIndex = err, i
		}
		mu.Unlock()
		cancel()
	}

	workers := e.parallelism
	if workers > len(procs) {
		workers = len(procs)
	}
	if workers < 1 {
		workers = 1
	}
	work := func(i int) {
		if ctx.Err() != nil {
			return // drain: the batch is already failing
		}
		procStart := time.Now()
		res, err := e.AllocateProc(procs[i])
		elapsed[i] = time.Since(procStart)
		if err != nil {
			fail(i, err)
			return
		}
		results[i] = res
	}
	if workers == 1 {
		// Inline fast path: a single worker gains nothing from the pool,
		// and the per-proc channel rendezvous is pure scheduler traffic —
		// measurably so when other goroutines (other corpus workers, the
		// service's accept loop) are runnable on the same core.
		for i := range procs {
			work(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					work(i)
				}
			}()
		}
		for i := range procs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	if firstErr != nil {
		return nil, nil, firstErr
	}
	if err := context.Cause(ctx); err != nil {
		return nil, nil, err
	}

	out := alloc.Assemble(prog, results)
	rep := &Report{
		Algorithm:   e.algorithm,
		Machine:     e.mach.Name,
		Parallelism: workers,
		Procs:       make([]ProcReport, 0, len(procs)),
	}
	for i, res := range results {
		rep.Procs = append(rep.Procs, ProcReport{Proc: procs[i].Name, Stats: res.Stats, Elapsed: elapsed[i]})
		rep.Totals.Add(res.Stats)
	}
	rep.PhaseStats = rep.Totals.Phases.Stats()
	heapAllocs1, heapBytes1 := alloc.HeapCounters()
	rep.HeapAllocs = heapAllocs1 - heapAllocs0
	rep.HeapBytes = heapBytes1 - heapBytes0
	rep.WallTime = time.Since(start)
	return out, rep, nil
}
