// Package alloc holds the plumbing shared by every register allocator in
// this repository: spill frames, result/statistics types, the common
// Allocator interface, callee-saved save/restore insertion, and the §3
// pass ordering that drives every allocator (Pipeline).
package alloc

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/scratch"
	"repro/internal/target"
)

// Allocator is a register allocation algorithm. Allocate rewrites p, a
// procedure the caller owns, in place so that no temporary operands
// remain, and returns it with statistics; p must not be used afterwards
// except through the result. lv is p's liveness as it stands (the one
// Prepare returns); the allocator must not keep it past the call. tm is
// the pipeline's phase timer: the allocator marks the phases it runs
// into its result's Stats, and the pipeline charges any span it leaves
// unmarked to PhaseScan. A nil tm marks nothing. Instances keep
// per-instance scratch and must not run concurrent allocations. The
// rewritten code may live in that scratch until the instance's next
// Allocate: a caller that keeps a result past it copies the procedure
// (Pipeline.Run does, once, with Proc.Clone).
type Allocator interface {
	Name() string
	Allocate(p *ir.Proc, lv *dataflow.Liveness, tm *Timer) (*Result, error)
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

// CalleeSaves is the pooled storage of callee-save insertion: the saved
// registers, their slots, and the arenas the save and restore code and
// the rewritten blocks are written into. The code stays there until the
// next Insert, so the allocation pipeline copies each result out before
// the allocator runs again. The zero value is ready to use; allocators
// keep one per instance.
type CalleeSaves struct {
	regs   []target.Reg
	slots  []int
	ops    []ir.Operand
	instrs []ir.Instr
}

// Insert inserts prologue saves and pre-return restores for every used
// callee-saved register and returns how many were used. used is indexed
// by register number (a dense RegSet; allocators keep one in their
// pooled scratch instead of a per-run map). Every allocator needs this:
// using a callee-saved register obligates the procedure to preserve its
// value. The save slots run in step with the registers. The entry block
// and every Ret block are rewritten into cs's instruction arena, and
// every save and restore takes its operands from cs's operand arena.
func (cs *CalleeSaves) Insert(p *ir.Proc, mach *target.Machine, used []bool) int {
	regs := cs.regs[:0]
	for c := target.Class(0); c < target.NumClasses; c++ {
		for _, r := range mach.CalleeSavedRegs(c) {
			if used[r] {
				regs = append(regs, r)
			}
		}
	}
	cs.regs = regs
	if len(regs) == 0 {
		clear(cs.instrs) // an earlier procedure's code
		cs.instrs = cs.instrs[:0]
		return 0
	}
	cs.slots = scratch.Grow(cs.slots, len(regs))
	slots := cs.slots
	for i := range regs {
		slots[i] = p.NewSlot()
	}
	rets := 0
	for _, b := range p.Blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.Ret {
			rets++
		}
	}
	// Every save and restore has two operands, register and slot.
	cs.ops = scratch.Grow(cs.ops, 2*len(regs)*(1+rets))
	ops := cs.ops[:0]
	operands := func(i int) []ir.Operand {
		ops = append(ops, ir.RegOp(regs[i]), ir.SlotOp(slots[i], ir.NoTemp))
		return ops[len(ops)-2 : len(ops) : len(ops)]
	}
	// A block's new code is appended to the arena and carved with full
	// capacity. Should the arena regrow midway, the blocks written
	// before keep the old array.
	code := cs.instrs[:0]
	carve := func(start int) []ir.Instr { return code[start:len(code):len(code)] }
	entry := p.Entry()
	for i := range regs {
		code = append(code, ir.Instr{
			Op:   ir.SpillSt,
			Tag:  ir.TagSave,
			Uses: operands(i),
		})
	}
	code = append(code, entry.Instrs...)
	entry.Instrs = carve(0)
	for _, b := range p.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.Ret {
			continue
		}
		start := len(code)
		code = append(code, b.Instrs[:len(b.Instrs)-1]...)
		for i := range regs {
			o := operands(i)
			code = append(code, ir.Instr{
				Op:   ir.SpillLd,
				Tag:  ir.TagRestore,
				Defs: o[:1:1],
				Uses: o[1:],
			})
		}
		code = append(code, *t)
		b.Instrs = carve(start)
	}
	if len(code) < len(cs.instrs) {
		clear(cs.instrs[len(code):]) // a larger earlier procedure's code
	}
	cs.instrs = code
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
