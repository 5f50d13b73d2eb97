package alloc

import (
	"fmt"
	"sync"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/target"
	"repro/internal/verify"
)

// Pipeline is the paper's §3 per-procedure pass ordering — the only one
// in the repository: clone the input, dead-code elimination, allocation
// of the clone with the liveness DCE left behind, optional symbolic
// verification, optional store-to-load forwarding (§2.4), the peephole
// pass that deletes collapsed moves, structural validation of the
// result, and the one copy of the result the caller gets back. The
// engine, the experiment harness, the conformance grids and the oracle's
// cost prediction all run it, so the grids certify exactly the path the
// engine serves.
type Pipeline struct {
	Mach *target.Machine
	// Verify runs the symbolic allocation verifier on every result.
	Verify bool
	// ForwardStores runs local store-to-load forwarding on the allocated
	// code before the peephole pass.
	ForwardStores bool
}

// Scratch is the pooled state of one pipeline worker: the arena each
// input procedure is cloned into, the dead-code elimination scratch
// whose last liveness the allocator takes over, and the phase timer.
// Everything the pipeline writes before its copy-out lives here or in
// the allocator's own scratch, and is overwritten by the next procedure.
// The zero value is ready to use; one Scratch serves one goroutine.
type Scratch struct {
	clone ir.ProcArena
	dce   opt.Scratch
	tm    Timer
}

// Prepare is the pipeline's pre-allocation step: it clones p into sc's
// arena, so the input is never modified, and runs dead-code elimination
// on the clone, round after round of opt.Scratch's Liveness and
// RemoveDead until one removes nothing. It returns the clone and its
// liveness, which that last round computed on exactly the clone; both
// are valid until sc's next use. A nil sc uses throwaway storage. The clone
// is charged to PhaseOther, each liveness solve to PhaseDataflow and
// each removal pass to PhaseOpt in st (nil for none), on sc's timer.
func Prepare(p *ir.Proc, sc *Scratch, st *Stats) (*ir.Proc, *dataflow.Liveness) {
	if sc == nil {
		sc = new(Scratch)
	}
	if st == nil {
		st = new(Stats)
	}
	in := sc.clone.Clone(p)
	sc.tm.Mark(st, PhaseOther)
	for {
		lv := sc.dce.Liveness(in)
		sc.tm.Mark(st, PhaseDataflow)
		n := sc.dce.RemoveDead(in, lv)
		sc.tm.Mark(st, PhaseOpt)
		if n == 0 {
			return in, lv
		}
	}
}

// Run allocates one procedure with a, which the caller must not share
// with a concurrent Run, on sc (nil for throwaway storage; the engine
// keeps one per worker, next to the allocator). The input is not
// modified. Prepare clones it into sc, the allocator rewrites the clone
// in place with the liveness DCE computed and marks its phases on sc's
// timer, and after verification, peephole and validation Run copies the
// result out with Proc.Clone. That copy, exactly sized, is the only heap
// copy of the procedure and the only storage the returned result holds:
// the next Run on sc or a overwrites everything else.
func (pl Pipeline) Run(a Allocator, sc *Scratch, p *ir.Proc) (*Result, error) {
	if sc == nil {
		sc = new(Scratch)
	}
	tm := &sc.tm
	tm.Start()
	var own Stats // phases the pipeline itself accounts for
	in, lv := Prepare(p, sc, &own)
	res, err := a.Allocate(in, lv, tm)
	if err != nil {
		return nil, err
	}
	// Whatever span the allocator left unmarked (all of it, for an
	// allocator that marks nothing) is charged to the scan phase rather
	// than dropped, so phase shares stay meaningful.
	tm.Mark(&own, PhaseScan)
	if pl.Verify {
		if err := verify.Verify(res.Proc, pl.Mach); err != nil {
			return nil, err
		}
		tm.Mark(&own, PhaseVerify)
	}
	if pl.ForwardStores {
		opt.ForwardStores(res.Proc, pl.Mach)
	}
	opt.Peephole(res.Proc)
	tm.Mark(&own, PhaseOpt)
	if err := ir.ValidateAllocated(res.Proc, pl.Mach); err != nil {
		return nil, fmt.Errorf("invalid allocation for %s: %w", p.Name, err)
	}
	res.Proc = res.Proc.Clone()
	tm.Mark(&own, PhaseOther)
	res.Stats.Phases.Add(own.Phases)
	return res, nil
}

// programScratch recycles the Scratch of Program calls, so callers that
// allocate one program at a time (the experiment harness, the
// conformance grids) do not build a clone arena per program.
var programScratch = sync.Pool{New: func() any { return new(Scratch) }}

// Program runs the pipeline over every procedure of prog in order with
// one allocator instance and one Scratch, and returns the allocated
// program plus the aggregate statistics. The input program is not
// modified.
func (pl Pipeline) Program(a Allocator, prog *ir.Program) (*ir.Program, Stats, error) {
	results := make([]*Result, len(prog.Procs))
	var agg Stats
	sc := programScratch.Get().(*Scratch)
	defer programScratch.Put(sc)
	for i, p := range prog.Procs {
		res, err := pl.Run(a, sc, p)
		if err != nil {
			return nil, agg, fmt.Errorf("%s: %s: %w", a.Name(), p.Name, err)
		}
		results[i] = res
		agg.Add(res.Stats)
	}
	return Assemble(prog, results), agg, nil
}

// Assemble builds the allocated program: prog's memory size, entry
// point and initial memory image around the allocated procedures, in
// results order.
func Assemble(prog *ir.Program, results []*Result) *ir.Program {
	out := ir.NewProgram(prog.MemWords)
	out.Main = prog.Main
	for addr, v := range prog.MemInit {
		out.SetMem(addr, v)
	}
	for _, res := range results {
		out.AddProc(res.Proc)
	}
	return out
}
