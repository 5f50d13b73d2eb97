package opt_test

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// referenceDCE is dead-code elimination as it was before it ran on
// pooled storage, kept verbatim as the test oracle: on every procedure
// the rounds alloc.Prepare drives on pooled storage must remove the same
// instructions.
//
// DeadCodeElim removes instructions whose results are never used: a def
// of a temporary not live after the instruction, with no side effects.
// Instructions defining physical registers, stores, calls and terminators
// are always kept. Returns the number of instructions removed.
func referenceDCE(p *ir.Proc) int {
	removed := 0
	for {
		p.Renumber()
		lv := dataflow.Compute(p)
		n := referenceRemoveDead(p, lv)
		removed += n
		if n == 0 {
			return removed
		}
	}
}

func referenceRemoveDead(p *ir.Proc, lv *dataflow.Liveness) int {
	removed := 0
	var dbuf []ir.Temp
	live := make([]bool, p.NumTemps())
	for _, b := range p.Blocks {
		// Per-block backward liveness over all temps (locals included).
		for i := range live {
			live[i] = false
		}
		lv.LiveOut[b.Order].ForEach(func(gi int) { live[lv.Globals[gi]] = true })

		keep := make([]bool, len(b.Instrs))
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			keep[i] = true
			if referenceIsRemovable(in) {
				dbuf = in.DefTemps(dbuf[:0])
				allDead := true
				for _, d := range dbuf {
					if live[d] {
						allDead = false
						break
					}
				}
				if allDead && len(dbuf) > 0 {
					keep[i] = false
					removed++
					continue // a dead instruction's uses do not count
				}
			}
			for _, d := range in.DefTemps(dbuf[:0]) {
				live[d] = false
			}
			for _, u := range in.UseTemps(dbuf[:0]) {
				live[u] = true
			}
		}
		if removed > 0 {
			out := b.Instrs[:0]
			for i := range b.Instrs {
				if keep[i] {
					out = append(out, b.Instrs[i])
				}
			}
			b.Instrs = out
		}
	}
	return removed
}

// referenceIsRemovable reports whether the instruction may be deleted when its
// results are dead: pure value computations writing only temporaries.
func referenceIsRemovable(in *ir.Instr) bool {
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
