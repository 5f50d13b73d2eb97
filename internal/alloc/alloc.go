// Package alloc holds the plumbing shared by every register allocator in
// this repository: spill frames, result/statistics types, the common
// Allocator interface, callee-saved save/restore insertion, and the §3
// pass ordering that drives every allocator (Pipeline).
package alloc

import (
	"fmt"
	"time"

	"repro/internal/ir"
	"repro/internal/scratch"
	"repro/internal/target"
)

// Allocator is a register allocation algorithm. Allocate must not mutate
// its input: implementations clone the procedure, rewrite the clone so
// that no temporary operands remain, and report statistics.
type Allocator interface {
	Name() string
	Allocate(p *ir.Proc) (*Result, error)
}

// OwnedAllocator is implemented by allocators that can consume a
// procedure the caller owns outright: AllocateOwned rewrites p in place
// (p must not be used afterwards) and skips the defensive clone that
// Allocate performs. The engine uses it so a procedure is cloned exactly
// once per pipeline run instead of once per pass.
type OwnedAllocator interface {
	AllocateOwned(p *ir.Proc) (*Result, error)
}

// PhaseProfiler is implemented by allocators that can annotate their
// per-phase timings with heap-allocation deltas. The engine calls
// SetPhaseProfile(true) on every pooled instance when it was built with
// phase profiling enabled; allocators that do not implement it simply
// report timings with zero alloc counters.
type PhaseProfiler interface {
	SetPhaseProfile(on bool)
}

// Result is a finished allocation.
type Result struct {
	// Proc is the rewritten procedure: every temp operand replaced by a
	// physical register, spill and resolution code inserted, and
	// callee-saved saves/restores in place.
	Proc *ir.Proc
	// Stats describes the allocation.
	Stats Stats
}

// Stats reports what an allocation did. Static counts are instruction
// counts in the rewritten code; dynamic counts come from the VM.
type Stats struct {
	// Candidates is the number of register candidates (temporaries).
	Candidates int
	// Inserted counts allocator-inserted instructions per spill tag.
	Inserted [ir.NumTags]int
	// SpilledTemps counts temporaries that ever lived in memory.
	SpilledTemps int
	// UsedCalleeSaved counts callee-saved registers the allocation used.
	UsedCalleeSaved int
	// AllocTime is the wall-clock time of the allocator core (the
	// quantity Table 3 of the paper reports; shared setup such as CFG
	// construction, liveness and loop analysis is excluded, as in §3.2).
	AllocTime time.Duration

	// Phases breaks the pipeline's wall time (and, under profiling,
	// heap allocations) down by stage; see Phase for the stages.
	Phases PhaseTimes `json:"phases"`

	// Coloring-specific: interference graph size summed over rounds and
	// the number of build/color rounds (Table 3 reports edges "over all
	// coloring iterations").
	InterferenceEdges int
	Rounds            int
}

// Add accumulates another allocation's statistics into s (used for
// program-level aggregate reports).
func (s *Stats) Add(o Stats) {
	s.Candidates += o.Candidates
	s.SpilledTemps += o.SpilledTemps
	s.UsedCalleeSaved += o.UsedCalleeSaved
	s.AllocTime += o.AllocTime
	s.Phases.Add(o.Phases)
	s.InterferenceEdges += o.InterferenceEdges
	s.Rounds += o.Rounds
	for i, c := range o.Inserted {
		s.Inserted[i] += c
	}
}

// TotalSpillCode returns the number of inserted spill instructions,
// excluding callee-save prologue/epilogue code.
func (s *Stats) TotalSpillCode() int {
	n := 0
	for tag, c := range s.Inserted {
		switch ir.Tag(tag) {
		case ir.TagScanLoad, ir.TagScanStore, ir.TagScanMove,
			ir.TagResolveLoad, ir.TagResolveStore, ir.TagResolveMove:
			n += c
		}
	}
	return n
}

// CountInserted tallies allocator-inserted instructions by tag.
func CountInserted(p *ir.Proc) [ir.NumTags]int {
	var counts [ir.NumTags]int
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			counts[b.Instrs[i].Tag]++
		}
	}
	return counts
}

// Frame assigns spill slots lazily, one home slot per temporary
// (§2.3: every spilled temporary has a fixed memory home).
type Frame struct {
	proc   *ir.Proc
	slotOf []int
}

// NewFrame returns an empty frame for p.
func NewFrame(p *ir.Proc) *Frame {
	f := &Frame{}
	f.Reset(p)
	return f
}

// Reset re-targets f at p with no slots assigned, reusing the backing
// array when capacity allows. Pooled allocator scratch resets one frame
// per allocation instead of allocating a fresh one.
func (f *Frame) Reset(p *ir.Proc) {
	f.proc = p
	f.slotOf = scratch.Grow(f.slotOf, p.NumTemps())
	for i := range f.slotOf {
		f.slotOf[i] = -1
	}
}

// Release drops the frame's procedure reference once allocation is
// done. A pooled frame would otherwise pin the last rewritten
// procedure (and its arena-backed clone) until the next Reset.
func (f *Frame) Release() { f.proc = nil }

// SlotOf returns t's home slot, allocating it on first use.
func (f *Frame) SlotOf(t ir.Temp) int {
	if f.slotOf[t] < 0 {
		f.slotOf[t] = f.proc.NewSlot()
	}
	return f.slotOf[t]
}

// HasSlot reports whether t ever received a home slot.
func (f *Frame) HasSlot(t ir.Temp) bool { return f.slotOf[t] >= 0 }

// NumSpilled counts temporaries with a home slot.
func (f *Frame) NumSpilled() int {
	n := 0
	for _, s := range f.slotOf {
		if s >= 0 {
			n++
		}
	}
	return n
}

// InsertCalleeSaves inserts prologue saves and pre-return restores for
// every used callee-saved register and returns how many were used. used
// is indexed by register number (a dense RegSet; allocators keep one in
// their pooled scratch instead of a per-run map). Both allocators need
// this: using a callee-saved register obligates the procedure to
// preserve its value.
func InsertCalleeSaves(p *ir.Proc, mach *target.Machine, used []bool) int {
	var regs []target.Reg
	for c := target.Class(0); c < target.NumClasses; c++ {
		for _, r := range mach.CalleeSavedRegs(c) {
			if used[r] {
				regs = append(regs, r)
			}
		}
	}
	if len(regs) == 0 {
		return 0
	}
	slots := make(map[target.Reg]int, len(regs))
	for _, r := range regs {
		slots[r] = p.NewSlot()
	}
	entry := p.Entry()
	pro := make([]ir.Instr, 0, len(regs)+len(entry.Instrs))
	for _, r := range regs {
		pro = append(pro, ir.Instr{
			Op:   ir.SpillSt,
			Tag:  ir.TagSave,
			Uses: []ir.Operand{ir.RegOp(r), ir.SlotOp(slots[r], ir.NoTemp)},
		})
	}
	entry.Instrs = append(pro, entry.Instrs...)
	for _, b := range p.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.Ret {
			continue
		}
		body := b.Instrs[:len(b.Instrs)-1]
		tail := make([]ir.Instr, 0, len(regs)+1)
		for _, r := range regs {
			tail = append(tail, ir.Instr{
				Op:   ir.SpillLd,
				Tag:  ir.TagRestore,
				Defs: []ir.Operand{ir.RegOp(r)},
				Uses: []ir.Operand{ir.SlotOp(slots[r], ir.NoTemp)},
			})
		}
		tail = append(tail, *t)
		b.Instrs = append(body, tail...)
	}
	return len(regs)
}

// CheckNoTemps verifies that allocation rewrote every temp operand.
func CheckNoTemps(p *ir.Proc) error {
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, o := range in.Uses {
				if o.Kind == ir.KindTemp {
					return fmt.Errorf("proc %s: block %s: %v still uses temp %s",
						p.Name, b.Name, in.Op, p.TempName(o.Temp))
				}
			}
			for _, o := range in.Defs {
				if o.Kind == ir.KindTemp {
					return fmt.Errorf("proc %s: block %s: %v still defines temp %s",
						p.Name, b.Name, in.Op, p.TempName(o.Temp))
				}
			}
		}
	}
	return nil
}

// Elapsed is a tiny helper for timing allocator cores.
func Elapsed(start time.Time) time.Duration { return time.Since(start) }
