package alloc

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/target"
	"repro/internal/verify"
)

// Pipeline is the paper's §3 per-procedure pass ordering — the only one
// in the repository: clone the input, dead-code elimination, allocation
// (through the OwnedAllocator fast path when the allocator has one),
// optional symbolic verification, optional store-to-load forwarding
// (§2.4), the peephole pass that deletes collapsed moves, and structural
// validation of the result. The engine, the experiment harness, the
// conformance grids and the oracle's cost prediction all run it, so the
// grids certify exactly the path the engine serves.
type Pipeline struct {
	Mach *target.Machine
	// Verify runs the symbolic allocation verifier on every result.
	Verify bool
	// ForwardStores runs local store-to-load forwarding on the allocated
	// code before the peephole pass.
	ForwardStores bool
	// ProfileAllocs annotates the phases the pipeline times itself with
	// heap-allocation counters (see Timer).
	ProfileAllocs bool
}

// Prepare is the pipeline's pre-allocation step: it clones p, so the
// input is never modified, and runs dead-code elimination on the clone.
// A non-nil tm charges the clone to PhaseOther and DCE to PhaseOpt in st.
func Prepare(p *ir.Proc, tm *Timer, st *Stats) *ir.Proc {
	in := p.Clone()
	tm.Mark(st, PhaseOther)
	opt.DeadCodeElim(in)
	tm.Mark(st, PhaseOpt)
	return in
}

// Run allocates one procedure with a, which the caller must not share
// with a concurrent Run. The input is not modified; for an
// OwnedAllocator the clone Prepare makes is the only defensive copy on
// the whole pipeline.
func (pl Pipeline) Run(a Allocator, p *ir.Proc) (*Result, error) {
	tm := NewTimer(pl.ProfileAllocs)
	var own Stats // phases the pipeline itself accounts for
	in := Prepare(p, &tm, &own)
	var res *Result
	var err error
	if oa, ok := a.(OwnedAllocator); ok {
		res, err = oa.AllocateOwned(in)
	} else {
		res, err = a.Allocate(in)
	}
	if err != nil {
		return nil, err
	}
	if res.Stats.Phases.TotalNs() > 0 {
		tm.Skip() // the allocator timed its own phases
	} else {
		// An external allocator with no phase instrumentation of its
		// own: charge its whole span to the scan phase rather than
		// dropping it, so phase shares stay meaningful.
		tm.Mark(&own, PhaseScan)
	}
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
	tm.Mark(&own, PhaseOther)
	res.Stats.Phases.Add(own.Phases)
	return res, nil
}

// Program runs the pipeline over every procedure of prog in order with
// one allocator instance and returns the allocated program plus the
// aggregate statistics. The input program is not modified.
func (pl Pipeline) Program(a Allocator, prog *ir.Program) (*ir.Program, Stats, error) {
	results := make([]*Result, len(prog.Procs))
	var agg Stats
	for i, p := range prog.Procs {
		res, err := pl.Run(a, p)
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
