package alloc

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/target"
)

func TestFrameAssignsStableSlots(t *testing.T) {
	p := ir.NewProc("main")
	a := p.NewTemp(target.ClassInt, "a")
	b := p.NewTemp(target.ClassFloat, "b")
	f := NewFrame(p)
	if f.HasSlot(a) {
		t.Fatal("slot exists before first use")
	}
	s1 := f.SlotOf(a)
	s2 := f.SlotOf(b)
	if s1 == s2 {
		t.Fatal("distinct temps share a slot")
	}
	if f.SlotOf(a) != s1 {
		t.Fatal("slot not stable")
	}
	if f.NumSpilled() != 2 || p.NumSlots != 2 {
		t.Fatalf("NumSpilled=%d NumSlots=%d", f.NumSpilled(), p.NumSlots)
	}
}

func TestInsertCalleeSaves(t *testing.T) {
	mach := target.Tiny(8, 4)
	b := ir.NewBuilder(mach, 8)
	pb := b.NewProc("main")
	z := pb.IntTemp("z")
	pb.Ldi(z, 0)
	exit2 := pb.Block("exit2")
	c := pb.IntTemp("c")
	pb.Op2(ir.CmpLT, c, ir.TempOp(z), ir.ImmOp(1))
	exit1 := pb.Block("exit1")
	pb.Br(ir.TempOp(c), exit1, exit2)
	pb.StartBlock(exit1)
	pb.Ret(z)
	pb.StartBlock(exit2)
	pb.Ret(z)

	callee := mach.CalleeSavedRegs(target.ClassInt)
	used := make([]bool, mach.NumRegs())
	used[callee[0]], used[callee[1]] = true, true
	n := new(CalleeSaves).Insert(pb.P, mach, used)
	if n != 2 {
		t.Fatalf("inserted %d saves, want 2", n)
	}
	// Two saves in the prologue.
	saves := 0
	for i := range pb.P.Entry().Instrs {
		if pb.P.Entry().Instrs[i].Tag == ir.TagSave {
			saves++
		}
	}
	if saves != 2 {
		t.Fatalf("prologue saves = %d", saves)
	}
	// Two restores before each of the two rets.
	restores := 0
	for _, blk := range pb.P.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Tag == ir.TagRestore {
				restores++
			}
		}
	}
	if restores != 4 {
		t.Fatalf("restores = %d, want 4 (2 per return)", restores)
	}
	if err := ir.ValidateAllocated(pb.P, mach); err != nil {
		t.Fatal(err)
	}
}

func TestCheckNoTemps(t *testing.T) {
	p := ir.NewProc("main")
	x := p.NewTemp(target.ClassInt, "x")
	blk := p.NewBlock("entry")
	blk.Instrs = []ir.Instr{
		{Op: ir.Ldi, Defs: []ir.Operand{ir.TempOp(x)}, Uses: []ir.Operand{ir.ImmOp(1)}},
		{Op: ir.Ret},
	}
	if err := CheckNoTemps(p); err == nil {
		t.Fatal("leftover temp not detected")
	}
	blk.Instrs[0].Defs[0] = ir.RegOp(0)
	if err := CheckNoTemps(p); err != nil {
		t.Fatalf("false positive: %v", err)
	}
}

func TestPickScratch(t *testing.T) {
	for _, m := range []*target.Machine{target.Alpha(), target.Tiny(4, 2), target.Tiny(3, 2)} {
		s := PickScratch(m)
		for _, r := range []target.Reg{s.Int[0], s.Int[1]} {
			if m.RegClass(r) != target.ClassInt {
				t.Fatalf("%s: int scratch has wrong class", m.Name)
			}
		}
		for _, r := range []target.Reg{s.Float[0], s.Float[1]} {
			if m.RegClass(r) != target.ClassFloat {
				t.Fatalf("%s: float scratch has wrong class", m.Name)
			}
		}
	}
}

func TestStatsTotalSpillCode(t *testing.T) {
	var s Stats
	s.Inserted[ir.TagScanLoad] = 3
	s.Inserted[ir.TagResolveStore] = 2
	s.Inserted[ir.TagSave] = 5 // excluded
	if got := s.TotalSpillCode(); got != 5 {
		t.Fatalf("TotalSpillCode = %d, want 5", got)
	}
}
