package opt

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/target"
)

func TestPeepholeRemovesSelfMoves(t *testing.T) {
	mach := target.Tiny(6, 3)
	p := ir.NewProc("main")
	blk := p.NewBlock("entry")
	r2 := mach.Reg(target.ClassInt, 2)
	r3 := mach.Reg(target.ClassInt, 3)
	blk.Instrs = []ir.Instr{
		{Op: ir.Mov, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: []ir.Operand{ir.RegOp(r2)}},                                                          // self
		{Op: ir.Mov, Defs: []ir.Operand{ir.RegOp(r3)}, Uses: []ir.Operand{ir.RegOp(r2)}},                                                          // real
		{Op: ir.FMov, Defs: []ir.Operand{ir.RegOp(mach.Reg(target.ClassFloat, 1))}, Uses: []ir.Operand{ir.RegOp(mach.Reg(target.ClassFloat, 1))}}, // self
		{Op: ir.Ret},
	}
	if got := Peephole(p); got != 2 {
		t.Fatalf("Peephole removed %d, want 2", got)
	}
	if len(blk.Instrs) != 2 {
		t.Fatalf("left %d instrs", len(blk.Instrs))
	}
}

func TestForwardStoresRewritesReload(t *testing.T) {
	mach := target.Tiny(6, 3)
	p := ir.NewProc("main")
	x := p.NewTemp(target.ClassInt, "x")
	s0 := p.NewSlot()
	blk := p.NewBlock("entry")
	r1 := mach.Reg(target.ClassInt, 1)
	r2 := mach.Reg(target.ClassInt, 2)
	blk.Instrs = []ir.Instr{
		{Op: ir.SpillSt, Uses: []ir.Operand{ir.RegOp(r1), ir.SlotOp(s0, x)}},
		{Op: ir.SpillLd, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: []ir.Operand{ir.SlotOp(s0, x)}},
		{Op: ir.SpillLd, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: []ir.Operand{ir.SlotOp(s0, x)}},
		{Op: ir.Ret},
	}
	changed := ForwardStores(p, mach)
	if changed != 2 {
		t.Fatalf("changed = %d, want 2", changed)
	}
	// First load becomes a move; second (same register already holds the
	// slot) is deleted.
	if blk.Instrs[1].Op != ir.Mov || blk.Instrs[1].Uses[0].Reg != r1 {
		t.Fatalf("first reload not forwarded: %v", blk.Instrs[1].Op)
	}
	if len(blk.Instrs) != 3 {
		t.Fatalf("redundant reload not deleted: %d instrs", len(blk.Instrs))
	}
}

func TestForwardStoresRespectsClobbers(t *testing.T) {
	mach := target.Tiny(6, 3)
	p := ir.NewProc("main")
	x := p.NewTemp(target.ClassInt, "x")
	s0 := p.NewSlot()
	blk := p.NewBlock("entry")
	r1 := mach.Reg(target.ClassInt, 1)
	r2 := mach.Reg(target.ClassInt, 2)
	blk.Instrs = []ir.Instr{
		{Op: ir.SpillSt, Uses: []ir.Operand{ir.RegOp(r1), ir.SlotOp(s0, x)}},
		// r1 overwritten: the slot knowledge must die.
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r1)}, Uses: []ir.Operand{ir.ImmOp(0)}},
		{Op: ir.SpillLd, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: []ir.Operand{ir.SlotOp(s0, x)}},
		{Op: ir.Ret},
	}
	if changed := ForwardStores(p, mach); changed != 0 {
		t.Fatalf("forwarded across a clobber: %d", changed)
	}
	if blk.Instrs[2].Op != ir.SpillLd {
		t.Fatal("load was wrongly rewritten")
	}

	// Same with a call in between.
	blk.Instrs = []ir.Instr{
		{Op: ir.SpillSt, Uses: []ir.Operand{ir.RegOp(r1), ir.SlotOp(s0, x)}},
		{Op: ir.Call, Uses: []ir.Operand{ir.SymOp("getc")}, Defs: []ir.Operand{ir.RegOp(mach.RetReg(target.ClassInt))}},
		{Op: ir.SpillLd, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: []ir.Operand{ir.SlotOp(s0, x)}},
		{Op: ir.Ret},
	}
	if changed := ForwardStores(p, mach); changed != 0 {
		t.Fatalf("forwarded across a call: %d", changed)
	}
}
