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
// instance whose scratch buffers persist across allocations, so the
// batch hot path stops re-allocating scan state per procedure.
type Engine struct {
	mach        *Machine
	algorithm   string
	pipe        alloc.Pipeline // the §3 pass ordering, configured by the options
	parallelism int
	cache       ResultCache

	pool sync.Pool // of Allocator instances, one per concurrent worker
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
// The engine enables sampling on every pooled allocator implementing
// PhaseProfiler (all four built-ins do); other allocators report their
// phases with zero alloc counters. Heap counters are process-global, so
// per-phase allocation figures are only exact under WithParallelism(1).
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

// PhaseStat is one pipeline phase's aggregate cost across a batch:
// summed wall time, its share of the total phase time, and — when the
// engine was built WithPhaseProfile — heap allocations attributed to
// the phase.
type PhaseStat struct {
	Phase  string  `json:"phase"`
	Ns     int64   `json:"ns"`
	Share  float64 `json:"share"`
	Allocs uint64  `json:"allocs,omitempty"`
	Bytes  uint64  `json:"bytes,omitempty"`
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
// runtime.GOMAXPROCS(0) workers.
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
	e.pool.New = func() any {
		a := factory(e.mach)
		if e.pipe.ProfileAllocs {
			if pp, ok := a.(alloc.PhaseProfiler); ok {
				pp.SetPhaseProfile(true)
			}
		}
		return a
	}
	return e, nil
}

// Machine returns the machine the engine allocates for.
func (e *Engine) Machine() *Machine { return e.mach }

// Algorithm returns the registry name of the engine's allocator.
func (e *Engine) Algorithm() string { return e.algorithm }

// AllocateProc runs the §3 pipeline (alloc.Pipeline) on one procedure
// with a pooled allocator and returns the rewritten procedure with
// statistics. The input is not modified. Safe for concurrent use.
func (e *Engine) AllocateProc(p *Proc) (*Result, error) {
	a := e.pool.Get().(Allocator)
	defer e.pool.Put(a)
	return e.pipe.Run(a, p)
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
	rep.PhaseStats = phaseStats(rep.Totals.Phases)
	heapAllocs1, heapBytes1 := alloc.HeapCounters()
	rep.HeapAllocs = heapAllocs1 - heapAllocs0
	rep.HeapBytes = heapBytes1 - heapBytes0
	rep.WallTime = time.Since(start)
	return out, rep, nil
}

// phaseStats renders aggregated phase samples as the Report's PhaseStats
// section, in phase declaration order.
func phaseStats(pt alloc.PhaseTimes) []PhaseStat {
	total := pt.TotalNs()
	stats := make([]PhaseStat, 0, alloc.NumPhases)
	for i := range pt {
		s := PhaseStat{
			Phase:  alloc.Phase(i).String(),
			Ns:     pt[i].Ns,
			Allocs: pt[i].Allocs,
			Bytes:  pt[i].Bytes,
		}
		if total > 0 {
			s.Share = float64(pt[i].Ns) / float64(total)
		}
		stats = append(stats, s)
	}
	return stats
}
