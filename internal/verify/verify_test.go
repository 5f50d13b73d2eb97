package verify

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/target"
)

// hand-build a tiny "allocated" procedure with Orig annotations.
func handProc(mach *target.Machine) (*ir.Proc, ir.Temp, target.Reg, target.Reg) {
	p := ir.NewProc("main")
	x := p.NewTemp(target.ClassInt, "x")
	r1 := mach.Reg(target.ClassInt, 1)
	r2 := mach.Reg(target.ClassInt, 2)
	blk := p.NewBlock("entry")
	blk.Instrs = []ir.Instr{
		// x ← 5 (original def, allocated to r1)
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r1)}, Uses: []ir.Operand{ir.ImmOp(5)},
			OrigDefs: []ir.Temp{x}, OrigUses: []ir.Temp{ir.NoTemp}},
		// use of x from r1 (correct)
		{Op: ir.Add, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: []ir.Operand{ir.RegOp(r1), ir.ImmOp(1)},
			OrigDefs: []ir.Temp{ir.NoTemp}, OrigUses: []ir.Temp{x, ir.NoTemp}},
		{Op: ir.Ret},
	}
	return p, x, r1, r2
}

func TestAcceptsCorrect(t *testing.T) {
	mach := target.Tiny(6, 3)
	p, _, _, _ := handProc(mach)
	if err := Verify(p, mach); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsWrongRegister(t *testing.T) {
	mach := target.Tiny(6, 3)
	p, _, _, r2 := handProc(mach)
	// Redirect the use to r2, which holds nothing.
	p.Blocks[0].Instrs[1].Uses[0] = ir.RegOp(r2)
	if err := Verify(p, mach); err == nil {
		t.Fatal("wrong-register use accepted")
	}
}

func TestRejectsValueLostAcrossCall(t *testing.T) {
	mach := target.Tiny(6, 3)
	p, x, r1, _ := handProc(mach)
	// Insert a call between def and use: r1 is caller-saved on Tiny, so
	// the value is lost and the use must be rejected.
	if !mach.CallerSaved(r1) {
		t.Skip("register layout changed")
	}
	blk := p.Blocks[0]
	call := ir.Instr{Op: ir.Call, Uses: []ir.Operand{ir.SymOp("getc")},
		Defs: []ir.Operand{ir.RegOp(mach.RetReg(target.ClassInt))}}
	blk.Instrs = []ir.Instr{blk.Instrs[0], call, blk.Instrs[1], blk.Instrs[2]}
	if err := Verify(p, mach); err == nil {
		t.Fatal("caller-saved value use across call accepted")
	}
	_ = x
}

func TestSpillRoundTripAccepted(t *testing.T) {
	mach := target.Tiny(6, 3)
	p, x, r1, r2 := handProc(mach)
	slot := p.NewSlot()
	blk := p.Blocks[0]
	callee := mach.CalleeSavedRegs(target.ClassInt)
	_ = callee
	// def x in r1; store to slot; call; reload into r2; use from r2.
	blk.Instrs = []ir.Instr{
		blk.Instrs[0],
		{Op: ir.SpillSt, Uses: []ir.Operand{ir.RegOp(r1), ir.SlotOp(slot, x)}},
		{Op: ir.Call, Uses: []ir.Operand{ir.SymOp("getc")},
			Defs: []ir.Operand{ir.RegOp(mach.RetReg(target.ClassInt))}},
		{Op: ir.SpillLd, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: []ir.Operand{ir.SlotOp(slot, x)}},
		{Op: ir.Add, Defs: []ir.Operand{ir.RegOp(r1)}, Uses: []ir.Operand{ir.RegOp(r2), ir.ImmOp(1)},
			OrigDefs: []ir.Temp{ir.NoTemp}, OrigUses: []ir.Temp{x, ir.NoTemp}},
		{Op: ir.Ret},
	}
	if err := Verify(p, mach); err != nil {
		t.Fatalf("valid spill round trip rejected: %v", err)
	}
	// Drop the store: the reload now yields the stale initial value, but
	// x was defined in between — must be rejected.
	blk.Instrs = append(blk.Instrs[:1], blk.Instrs[2:]...)
	if err := Verify(p, mach); err == nil {
		t.Fatal("missing spill store accepted")
	}
}

// TestMaybeUndefinedUseExempt pins the zero-initialized-temp rule: a use
// whose def executes only on one branch of a diamond reads the VM's zero
// temp file on the other, so the verifier must accept it — while a use
// of a temp defined on every path keeps full location checking.
func TestMaybeUndefinedUseExempt(t *testing.T) {
	mach := target.Tiny(6, 3)
	p := ir.NewProc("main")
	x := p.NewTemp(target.ClassInt, "x")
	r1 := mach.Reg(target.ClassInt, 1)
	r3 := mach.Reg(target.ClassInt, 3)

	entry := p.NewBlock("entry")
	thenB := p.NewBlock("then")
	join := p.NewBlock("join")
	entry.Instrs = []ir.Instr{
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r3)}, Uses: []ir.Operand{ir.ImmOp(0)}},
		{Op: ir.Br, Uses: []ir.Operand{ir.RegOp(r3)}},
	}
	ir.AddEdge(entry, thenB)
	ir.AddEdge(entry, join)
	// x is defined only on the then-path.
	thenB.Instrs = []ir.Instr{
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r1)}, Uses: []ir.Operand{ir.ImmOp(7)},
			OrigDefs: []ir.Temp{x}, OrigUses: []ir.Temp{ir.NoTemp}},
		{Op: ir.Jmp},
	}
	ir.AddEdge(thenB, join)
	// join uses x from r1: along the fall-through path x is undefined
	// (reads zero in the original program), so this must be accepted.
	join.Instrs = []ir.Instr{
		{Op: ir.Add, Defs: []ir.Operand{ir.RegOp(r3)}, Uses: []ir.Operand{ir.RegOp(r1), ir.ImmOp(0)},
			OrigDefs: []ir.Temp{ir.NoTemp}, OrigUses: []ir.Temp{x, ir.NoTemp}},
		{Op: ir.Ret},
	}
	if err := Verify(p, mach); err != nil {
		t.Fatalf("maybe-undefined use rejected: %v", err)
	}

	// Define x on the fall-through path too (into a different register,
	// with no resolution move): now x is must-defined at the use and the
	// disagreement is a real error again.
	r2 := mach.Reg(target.ClassInt, 2)
	split := p.NewBlock("split")
	entry.Succs[1] = split
	for i, q := range join.Preds {
		if q == entry {
			join.Preds[i] = split
		}
	}
	split.Preds = []*ir.Block{entry}
	split.Succs = []*ir.Block{join}
	split.Instrs = []ir.Instr{
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: []ir.Operand{ir.ImmOp(9)},
			OrigDefs: []ir.Temp{x}, OrigUses: []ir.Temp{ir.NoTemp}},
		{Op: ir.Jmp},
	}
	if err := Verify(p, mach); err == nil {
		t.Fatal("must-defined disagreeing use accepted")
	}
}

// TestMaybeUndefinedStillRejectsAgreedWrongRegister pins the narrowness
// of the zero-init exemption: when every path agrees the read location
// holds a DIFFERENT temporary's value, the defined path is provably
// miscompiled and the use must be rejected even though the temp is
// maybe-undefined.
func TestMaybeUndefinedStillRejectsAgreedWrongRegister(t *testing.T) {
	mach := target.Tiny(6, 3)
	p := ir.NewProc("main")
	x := p.NewTemp(target.ClassInt, "x")
	y := p.NewTemp(target.ClassInt, "y")
	r1 := mach.Reg(target.ClassInt, 1)
	r2 := mach.Reg(target.ClassInt, 2)
	r3 := mach.Reg(target.ClassInt, 3)

	entry := p.NewBlock("entry")
	thenB := p.NewBlock("then")
	join := p.NewBlock("join")
	// y lives in r2 along every path; x (defined only on the then-path)
	// lives in r1.
	entry.Instrs = []ir.Instr{
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: []ir.Operand{ir.ImmOp(3)},
			OrigDefs: []ir.Temp{y}, OrigUses: []ir.Temp{ir.NoTemp}},
		{Op: ir.Br, Uses: []ir.Operand{ir.RegOp(r2)}},
	}
	ir.AddEdge(entry, thenB)
	ir.AddEdge(entry, join)
	thenB.Instrs = []ir.Instr{
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r1)}, Uses: []ir.Operand{ir.ImmOp(7)},
			OrigDefs: []ir.Temp{x}, OrigUses: []ir.Temp{ir.NoTemp}},
		{Op: ir.Jmp},
	}
	ir.AddEdge(thenB, join)
	// join reads x from r2 — but r2 holds y on BOTH paths: on the
	// then-path (x defined, live in r1) this reads the wrong value, so
	// the maybe-undefined exemption must not apply.
	join.Instrs = []ir.Instr{
		{Op: ir.Add, Defs: []ir.Operand{ir.RegOp(r3)}, Uses: []ir.Operand{ir.RegOp(r2), ir.ImmOp(0)},
			OrigDefs: []ir.Temp{ir.NoTemp}, OrigUses: []ir.Temp{x, ir.NoTemp}},
		{Op: ir.Ret},
	}
	if err := Verify(p, mach); err == nil {
		t.Fatal("agreed-wrong-register read of maybe-undefined temp accepted")
	}
}

func TestMergeRequiresAgreement(t *testing.T) {
	mach := target.Tiny(6, 3)
	p := ir.NewProc("main")
	x := p.NewTemp(target.ClassInt, "x")
	r1 := mach.Reg(target.ClassInt, 1)
	r2 := mach.Reg(target.ClassInt, 2)
	r3 := mach.Reg(target.ClassInt, 3)

	entry := p.NewBlock("entry")
	a := p.NewBlock("a")
	bb := p.NewBlock("b")
	join := p.NewBlock("join")

	entry.Instrs = []ir.Instr{
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r3)}, Uses: []ir.Operand{ir.ImmOp(0)}},
		{Op: ir.Br, Uses: []ir.Operand{ir.RegOp(r3)}},
	}
	ir.AddEdge(entry, a)
	ir.AddEdge(entry, bb)
	// Path a: x defined into r1. Path b: x defined into r2.
	a.Instrs = []ir.Instr{
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r1)}, Uses: []ir.Operand{ir.ImmOp(1)},
			OrigDefs: []ir.Temp{x}, OrigUses: []ir.Temp{ir.NoTemp}},
		{Op: ir.Jmp},
	}
	ir.AddEdge(a, join)
	bb.Instrs = []ir.Instr{
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: []ir.Operand{ir.ImmOp(2)},
			OrigDefs: []ir.Temp{x}, OrigUses: []ir.Temp{ir.NoTemp}},
		{Op: ir.Jmp},
	}
	ir.AddEdge(bb, join)
	// join uses x from r1: only valid along path a — must be rejected.
	join.Instrs = []ir.Instr{
		{Op: ir.Add, Defs: []ir.Operand{ir.RegOp(r3)}, Uses: []ir.Operand{ir.RegOp(r1), ir.ImmOp(0)},
			OrigDefs: []ir.Temp{ir.NoTemp}, OrigUses: []ir.Temp{x, ir.NoTemp}},
		{Op: ir.Ret},
	}
	if err := Verify(p, mach); err == nil {
		t.Fatal("disagreeing join accepted")
	}
	// Fix path b with a resolution move r2→r1: now valid.
	bb.Instrs = []ir.Instr{
		bb.Instrs[0],
		{Op: ir.Mov, Tag: ir.TagResolveMove, Defs: []ir.Operand{ir.RegOp(r1)}, Uses: []ir.Operand{ir.RegOp(r2)}},
		{Op: ir.Jmp},
	}
	if err := Verify(p, mach); err != nil {
		t.Fatalf("resolved join rejected: %v", err)
	}
}

// TestVerifyLeavesInputUntouched: Verify only reads its input. The
// printed procedure and the spare capacity behind every operand slice
// are unchanged afterwards, including for an instruction whose Uses has
// room to spare right where an append of its Defs would land.
func TestVerifyLeavesInputUntouched(t *testing.T) {
	mach := target.Tiny(6, 3)
	p, x, r1, r2 := handProc(mach)
	uses := make([]ir.Operand, 2, 4)
	uses[0], uses[1] = ir.RegOp(r1), ir.ImmOp(1)
	uses[:4][2], uses[:4][3] = ir.ImmOp(77), ir.ImmOp(78)
	p.Blocks[0].Instrs[1] = ir.Instr{Op: ir.Add, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: uses,
		OrigDefs: []ir.Temp{ir.NoTemp}, OrigUses: []ir.Temp{x, ir.NoTemp}}
	snapshot := func() (string, [][]ir.Operand) {
		var spare [][]ir.Operand
		for _, b := range p.Blocks {
			for _, in := range b.Instrs {
				for _, ops := range [][]ir.Operand{in.Uses, in.Defs} {
					spare = append(spare, append([]ir.Operand(nil), ops[len(ops):cap(ops)]...))
				}
			}
		}
		return ir.ProcString(p), spare
	}
	text, spare := snapshot()
	if err := Verify(p, mach); err != nil {
		t.Fatal(err)
	}
	text2, spare2 := snapshot()
	if text2 != text {
		t.Fatalf("procedure changed:\n%s\nwant:\n%s", text2, text)
	}
	if !reflect.DeepEqual(spare2, spare) {
		t.Fatalf("spare operand capacity changed: %v, want %v", spare2, spare)
	}
}

// TestRejectsOutOfRangeLocation: the dense state indexes by register
// and slot number, so a register outside the machine or a negative slot
// is an error, never a panic (a register past NumRegs reaching a call
// used to panic in CallerSaved), and so is a slot number too far from
// the others to index densely.
func TestRejectsOutOfRangeLocation(t *testing.T) {
	mach := target.Tiny(6, 3)
	for _, tc := range []struct {
		name string
		op   ir.Operand
	}{
		{"register past NumRegs", ir.RegOp(target.Reg(mach.NumRegs()))},
		{"register 99", ir.RegOp(99)},
		{"negative register", ir.RegOp(-1)},
		{"negative slot", ir.SlotOp(-1, ir.NoTemp)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _, _, _ := handProc(mach)
			blk := p.Blocks[0]
			call := ir.Instr{Op: ir.Call, Uses: []ir.Operand{ir.SymOp("getc")},
				Defs: []ir.Operand{ir.RegOp(mach.RetReg(target.ClassInt))}}
			blk.Instrs[0].Defs[0] = tc.op
			blk.Instrs = []ir.Instr{blk.Instrs[0], call, blk.Instrs[1], blk.Instrs[2]}
			err := Verify(p, mach)
			if err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("got %v, want an out-of-range error", err)
			}
		})
	}

	// Two slots 2^40 apart: too sparse to number densely.
	p, _, _, _ := handProc(mach)
	p.Blocks[0].Instrs[0].Defs[0] = ir.SlotOp(0, ir.NoTemp)
	p.Blocks[0].Instrs[1].Defs[0] = ir.SlotOp(1<<40, ir.NoTemp)
	if err := Verify(p, mach); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("sparse slots: got %v, want an out-of-range error", err)
	}
}

// TestHighSlotNumbers: slots are numbered from the lowest one an
// operand names, so a frame whose slots start far from zero (NumSlots
// arrives unchecked in binary bodies) verifies like one starting at
// zero, and errors still name the real slot.
func TestHighSlotNumbers(t *testing.T) {
	mach := target.Tiny(6, 3)
	p, x, r1, r2 := handProc(mach)
	p.NumSlots = 1 << 40
	slot := ir.SlotOp(p.NewSlot(), x)
	blk := p.Blocks[0]
	def := blk.Instrs[0]
	use := ir.Instr{Op: ir.Add, Defs: []ir.Operand{ir.RegOp(r1)}, Uses: []ir.Operand{ir.RegOp(r2), ir.ImmOp(1)},
		OrigDefs: []ir.Temp{ir.NoTemp}, OrigUses: []ir.Temp{x, ir.NoTemp}}
	blk.Instrs = []ir.Instr{
		def,
		{Op: ir.SpillSt, Uses: []ir.Operand{ir.RegOp(r1), slot}},
		{Op: ir.SpillLd, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: []ir.Operand{slot}},
		use,
		{Op: ir.Ret},
	}
	if err := Verify(p, mach); err != nil {
		t.Fatalf("spill round trip through a high slot rejected: %v", err)
	}
	// Redefine x after the store: the slot's copy is stale.
	blk.Instrs = []ir.Instr{def, blk.Instrs[1], def, {Op: ir.Add, Defs: []ir.Operand{ir.RegOp(r2)},
		Uses: []ir.Operand{slot, ir.ImmOp(1)}, OrigDefs: []ir.Temp{ir.NoTemp}, OrigUses: []ir.Temp{x, ir.NoTemp}}, {Op: ir.Ret}}
	err := Verify(p, mach)
	if want := "reads slot1099511627776 which holds unknown"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want an error containing %q", err, want)
	}
}
