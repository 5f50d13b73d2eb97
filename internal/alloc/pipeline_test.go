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
// is charged its wall time in the scan phase, and charges no phase the
// allocator would have marked. The
// dataflow phase is the pipeline's own: it times DCE's liveness solves.
func TestRunChargesUnmarkedSpanToScan(t *testing.T) {
	mach := target.Alpha()
	pl := Pipeline{Mach: mach, Verify: true}
	for _, p := range progs.Named("wc").Build(mach, 1).Procs {
		res, err := pl.Run(memoryAllocator{mach}, nil, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		ph := res.Stats.Phases
		if ph[PhaseScan] <= 0 {
			t.Errorf("%s: scan phase %d ns, want the allocator's span", p.Name, ph[PhaseScan])
		}
		if ph[PhaseDataflow] <= 0 {
			t.Errorf("%s: dataflow phase %d ns, want DCE's liveness solves", p.Name, ph[PhaseDataflow])
		}
		for _, unmarked := range []Phase{PhaseCFG, PhaseLifetime, PhaseMoves} {
			if ph[unmarked] != 0 {
				t.Errorf("%s: phase %s charged %d ns by an allocator that marks nothing", p.Name, unmarked, ph[unmarked])
			}
		}
	}
}
