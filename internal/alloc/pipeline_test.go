package alloc

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
)

// memoryAllocator keeps every temporary in memory and marks no phase on
// the timer it is handed, as an allocator that times nothing does.
type memoryAllocator struct{ mach *target.Machine }

func (memoryAllocator) Name() string { return "all-memory" }

func (a memoryAllocator) Allocate(p *ir.Proc, _ *dataflow.Liveness, _ *Timer) (*Result, error) {
	usedCallee := make([]bool, a.mach.NumRegs())
	RewriteAssigned(p, a.mach, NewAssignment(p), NewFrame(p), PickScratch(a.mach), usedCallee)
	p.Renumber()
	return &Result{Proc: p}, nil
}

// TestRunChargesUnmarkedSpanToScan checks the one allocator contract
// from the pipeline's side: an allocator that marks nothing on the timer
// is charged, wall time and (under ProfileAllocs) heap allocations, to
// the scan phase, and to no phase the allocator would have marked. The
// dataflow phase is the pipeline's own: it times DCE's liveness solves.
func TestRunChargesUnmarkedSpanToScan(t *testing.T) {
	mach := target.Alpha()
	pl := Pipeline{Mach: mach, Verify: true, ProfileAllocs: true}
	for _, p := range progs.Named("wc").Build(mach, 1).Procs {
		res, err := pl.Run(memoryAllocator{mach}, nil, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		ph := res.Stats.Phases
		if ph[PhaseScan].Ns <= 0 || ph[PhaseScan].Allocs == 0 {
			t.Errorf("%s: scan phase %+v, want the allocator's span", p.Name, ph[PhaseScan])
		}
		if ph[PhaseDataflow].Ns <= 0 {
			t.Errorf("%s: dataflow phase %+v, want DCE's liveness solves", p.Name, ph[PhaseDataflow])
		}
		for _, unmarked := range []Phase{PhaseCFG, PhaseLifetime, PhaseMoves} {
			if ph[unmarked] != (PhaseSample{}) {
				t.Errorf("%s: phase %s charged %+v by an allocator that marks nothing", p.Name, unmarked, ph[unmarked])
			}
		}
	}
}
