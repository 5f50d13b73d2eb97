// Package core implements second-chance binpacking, the register
// allocation algorithm of Traub, Holloway and Smith (PLDI 1998).
//
// The allocator walks the linearized procedure once, allocating registers
// and rewriting operands in the same pass (§2.3). A temporary evicted to
// memory is not doomed: its lifetime is split at the spill point and the
// next reference optimistically receives a fresh register — a second (or
// third, ...) chance. Register/memory consistency is tracked so spill
// stores are emitted only when the memory home is stale, and a resolution
// pass over CFG edges (§2.4) repairs the mismatches the linear-order
// fiction introduces, backed by the USED_CONSISTENCY / WROTE_TR /
// ARE_CONSISTENT bit-vector dataflow for stores whose omission relied on
// non-local consistency.
//
// The same package hosts the traditional two-pass binpacking model the
// paper measures against in §3.1 (whole lifetime in a register or in
// memory, still exploiting lifetime holes), selected with
// Options.SecondChance=false.
package core

import (
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/target"
)

// HeuristicKind selects the eviction priority function.
type HeuristicKind uint8

const (
	// HeuristicWeighted is the paper's heuristic (§2.3): priority is the
	// loop-depth weight of the temporary's next reference divided by the
	// distance to it; the lowest-priority temporary is evicted. Ties
	// prefer victims that need no spill store.
	HeuristicWeighted HeuristicKind = iota
	// HeuristicPlainDistance ignores loop depth: evict the temporary
	// whose next reference is farthest (the heuristic of Poletto's
	// linear scan, as an ablation).
	HeuristicPlainDistance
)

// Options configure the allocator. DefaultOptions matches the paper's
// configuration.
type Options struct {
	// SecondChance enables single-pass allocate+rewrite with lifetime
	// splitting. When false, the allocator runs the traditional
	// two-pass binpacking of §3.1: each lifetime is wholly in a
	// register or wholly in memory (holes are still exploited).
	SecondChance bool
	// MoveOpt enables §2.5 move coalescing during the scan: a move's
	// destination is assigned the source's register when the
	// destination's lifetime fits in the hole that opens after the
	// source's use (this is what eliminates the Alpha parameter moves).
	MoveOpt bool
	// EarlySecondChance enables §2.5 eviction moves: when a register
	// hole expires (e.g. at a call) and eviction would cost a store,
	// move the value to a free register whose hole covers the remaining
	// lifetime instead.
	EarlySecondChance bool
	// StrictLinear replaces the iterative consistency dataflow with the
	// conservative per-block initialization of §2.6 (intersection of
	// predecessor ARE_CONSISTENT vectors), making the allocator strictly
	// linear at the cost of some extra stores.
	StrictLinear bool
	// Heuristic selects the eviction priority function.
	Heuristic HeuristicKind
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		SecondChance:      true,
		MoveOpt:           true,
		EarlySecondChance: true,
	}
}

// Allocator is the binpacking register allocator. It keeps per-instance
// scratch buffers — for lifetime construction and the scan itself —
// that are reused across Allocate calls, so one Allocator must not run
// concurrent allocations; use one instance per goroutine (the engine's
// worker pool does exactly that). The rewritten procedure's code lives
// in the same scratch until the next Allocate, so in steady state
// repeated allocation through one instance performs near-zero heap
// allocation.
type Allocator struct {
	mach    *target.Machine
	opts    Options
	scratch scanScratch
	ltsc    lifetime.Scratch
	rbsc    lifetime.RegScratch
	saves   alloc.CalleeSaves
	loops   cfg.Scratch
}

// New returns an allocator for the machine with the given options.
func New(m *target.Machine, opts Options) *Allocator {
	return &Allocator{mach: m, opts: opts}
}

// NewDefault returns the paper-configured second-chance allocator.
func NewDefault(m *target.Machine) *Allocator { return New(m, DefaultOptions()) }

// Name identifies the allocator in reports.
func (a *Allocator) Name() string {
	if !a.opts.SecondChance {
		return "two-pass binpacking"
	}
	return "second-chance binpacking"
}

var _ alloc.Allocator = (*Allocator)(nil)

// Allocate allocates registers for p, rewriting it in place, with lv as
// its liveness and tm as the pipeline's phase timer (see
// alloc.Allocator).
func (a *Allocator) Allocate(p *ir.Proc, lv *dataflow.Liveness, tm *alloc.Timer) (*alloc.Result, error) {
	res := &alloc.Result{Proc: p}
	st := &res.Stats

	p.Renumber()
	tm.Mark(st, alloc.PhaseOther)
	// Shared setup (the paper excludes this from allocation timing:
	// CFG construction, loop analysis and liveness are common to both
	// allocators, §3.2).
	a.loops.ComputeLoopDepths(p)
	tm.Mark(st, alloc.PhaseCFG)

	start := time.Now()
	lt := a.ltsc.Compute(p, lv)
	rb := a.rbsc.Compute(p, a.mach)
	tm.Mark(st, alloc.PhaseLifetime)

	st.Candidates = p.NumTemps()

	var frame *alloc.Frame
	var usedCallee []bool
	if a.opts.SecondChance {
		s := newScan(p, a.mach, a.opts, lv, lt, rb, &a.scratch)
		if err := s.run(); err != nil {
			s.release(&a.scratch)
			return nil, fmt.Errorf("%s: %s: %w", a.Name(), p.Name, err)
		}
		tm.Mark(st, alloc.PhaseScan)
		s.resolve(&a.scratch)
		s.release(&a.scratch)
		tm.Mark(st, alloc.PhaseMoves)
		frame = s.frame
		usedCallee = s.usedCallee
	} else {
		var err error
		frame, usedCallee, err = a.twoPass(p, lt, rb)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name(), p.Name, err)
		}
		tm.Mark(st, alloc.PhaseScan)
	}
	st.UsedCalleeSaved = a.saves.Insert(p, a.mach, usedCallee)
	st.AllocTime = time.Since(start)
	st.SpilledTemps = frame.NumSpilled()
	frame.Release() // the pooled frame must not pin p past this run
	p.Renumber()
	st.Inserted = alloc.CountInserted(p)
	if err := alloc.CheckNoTemps(p); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name(), err)
	}
	tm.Mark(st, alloc.PhaseOther)
	return res, nil
}
