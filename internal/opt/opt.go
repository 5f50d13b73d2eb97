// Package opt implements the optimization passes that bracket register
// allocation in the paper's experimental pipeline (§3): dead-code
// elimination before allocation, and a peephole pass afterwards that
// deletes moves the allocators collapsed (both allocators rewrite
// coalesced moves into self-moves and leave the deletion to this pass).
// An optional store-to-load forwarding pass implements the local version
// of the load/store sinking the paper sketches as follow-on work (§2.4).
package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/scratch"
	"repro/internal/target"
)

// Scratch holds the reusable working storage of dead-code elimination:
// the liveness scratch its rounds run on, and the per-block live and keep
// vectors. Dead-code elimination removes instructions whose results are
// never used: a def of a temporary not live after the instruction, with
// no side effects. Instructions defining physical registers, stores,
// calls and terminators are always kept. Removing an instruction can make
// its operands dead, so rounds of Liveness and RemoveDead repeat until
// one removes nothing; the allocation pipeline's Prepare drives the
// rounds, timing the two halves apart, and hands the liveness of the
// last round, which changed nothing, to the allocator. One scratch
// serves one goroutine; the zero value is ready to use.
type Scratch struct {
	df         dataflow.Scratch
	live       []bool    // by temp; all false between blocks
	liveDirty  []ir.Temp // temps set in live during the current block
	keep       []bool    // by instruction of the current block
	dbuf, ubuf []ir.Temp
}

// Liveness renumbers p and solves its liveness: the first half of one
// dead-code elimination round. The result is owned by the scratch and
// valid until its next use.
func (sc *Scratch) Liveness(p *ir.Proc) *dataflow.Liveness {
	p.Renumber()
	return sc.df.Compute(p)
}

// RemoveDead is the second half of one dead-code elimination round: it
// makes one backward pass over each block, with lv (p's liveness, from
// Liveness) giving each block's exit state, deletes the removable
// instructions whose results are dead where they are written, and
// returns how many it deleted.
func (sc *Scratch) RemoveDead(p *ir.Proc, lv *dataflow.Liveness) int {
	removed := 0
	sc.live = scratch.GrowCleared(sc.live, p.NumTemps())
	live := sc.live
	dirty := sc.liveDirty[:0]
	mark := func(t ir.Temp) {
		if !live[t] {
			live[t] = true
			dirty = append(dirty, t)
		}
	}
	dbuf, ubuf := sc.dbuf, sc.ubuf
	for _, b := range p.Blocks {
		// Per-block backward liveness over all temps (locals included).
		lv.LiveOut[b.Order].ForEach(func(gi int) { mark(lv.Globals[gi]) })

		sc.keep = scratch.Grow(sc.keep, len(b.Instrs))
		keep := sc.keep
		dropped := 0
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			keep[i] = true
			dbuf = in.DefTemps(dbuf[:0])
			if isRemovable(in) {
				allDead := true
				for _, d := range dbuf {
					if live[d] {
						allDead = false
						break
					}
				}
				if allDead && len(dbuf) > 0 {
					keep[i] = false
					dropped++
					continue // a dead instruction's uses do not count
				}
			}
			for _, d := range dbuf {
				live[d] = false
			}
			ubuf = in.UseTemps(ubuf[:0])
			for _, u := range ubuf {
				mark(u)
			}
		}
		for _, t := range dirty {
			live[t] = false
		}
		dirty = dirty[:0]
		if dropped > 0 {
			out := b.Instrs[:0]
			for i := range b.Instrs {
				if keep[i] {
					out = append(out, b.Instrs[i])
				}
			}
			b.Instrs = out
			removed += dropped
		}
	}
	sc.liveDirty, sc.dbuf, sc.ubuf = dirty, dbuf, ubuf
	return removed
}

// isRemovable reports whether the instruction may be deleted when its
// results are dead: pure value computations writing only temporaries.
func isRemovable(in *ir.Instr) bool {
	switch in.Op {
	case ir.St, ir.FSt, ir.SpillSt, ir.Call, ir.Jmp, ir.Br, ir.Ret, ir.Nop:
		return false
	}
	for _, d := range in.Defs {
		if d.Kind != ir.KindTemp {
			return false // writes machine state
		}
	}
	return len(in.Defs) == 1
}

// Peephole deletes self-moves (mov r, r) produced by move coalescing in
// either allocator, and returns the number of instructions removed.
func Peephole(p *ir.Proc) int {
	removed := 0
	for _, b := range p.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.IsMove() &&
				in.Defs[0].Kind == ir.KindReg && in.Uses[0].Kind == ir.KindReg &&
				in.Defs[0].Reg == in.Uses[0].Reg {
				removed++
				continue
			}
			out = append(out, b.Instrs[i])
		}
		b.Instrs = out
	}
	return removed
}

// ForwardStores performs local store-to-load forwarding on allocated
// code: within a block, a spill load from a slot whose value is known to
// be in a register (because a spill store from that register is still
// valid) becomes a register move; a reload into the same register is
// deleted outright. This is the local version of the post-allocation
// cleanup the paper suggests ("a later code motion pass that tries to
// sink stores and hoist loads until they meet", §2.4). Returns the number
// of instructions rewritten or removed.
func ForwardStores(p *ir.Proc, mach *target.Machine) int {
	changed := 0
	type slotVal struct {
		reg ir.Operand
		ok  bool
	}
	for _, b := range p.Blocks {
		known := map[int64]slotVal{} // slot -> register holding its value
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			switch {
			case in.Op == ir.SpillSt && in.Uses[0].Kind == ir.KindReg:
				known[in.Uses[1].Imm] = slotVal{reg: in.Uses[0], ok: true}
			case in.Op == ir.SpillLd && in.Defs[0].Kind == ir.KindReg:
				slot := in.Uses[0].Imm
				if v, ok := known[slot]; ok && v.ok {
					if v.reg.Reg == in.Defs[0].Reg {
						changed++ // reload of a value already in place
						continue
					}
					op := ir.Mov
					if mach.RegClass(in.Defs[0].Reg) == target.ClassFloat {
						op = ir.FMov
					}
					in = ir.Instr{Op: op, Tag: in.Tag, Pos: in.Pos,
						Defs: in.Defs, Uses: []ir.Operand{v.reg},
						OrigUses: in.OrigUses, OrigDefs: in.OrigDefs}
					changed++
				}
				// The load wrote its destination register: slots
				// mirrored there are stale, and the loaded register now
				// mirrors this slot.
				for s, v := range known {
					if v.reg.Reg == in.Defs[0].Reg {
						delete(known, s)
					}
				}
				known[slot] = slotVal{reg: in.Defs[0], ok: true}
			case in.Op == ir.Call:
				// Calls clobber caller-saved registers; forget
				// everything to stay conservative.
				known = map[int64]slotVal{}
			default:
				// Any def of a register invalidates slots mirrored there.
				for _, d := range in.Defs {
					if d.Kind != ir.KindReg {
						continue
					}
					for s, v := range known {
						if v.reg.Reg == d.Reg {
							delete(known, s)
						}
					}
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	return changed
}
