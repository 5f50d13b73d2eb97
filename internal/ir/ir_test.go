package ir

import (
	"strings"
	"testing"

	"repro/internal/target"
)

func buildDiamond(t *testing.T) (*Builder, *ProcBuilder) {
	t.Helper()
	mach := target.Tiny(6, 3)
	b := NewBuilder(mach, 16)
	pb := b.NewProc("f", target.ClassInt)
	x := pb.P.Params[0]
	y := pb.IntTemp("y")
	thenB := pb.Block("then")
	elseB := pb.Block("else")
	join := pb.Block("join")
	c := pb.IntTemp("c")
	pb.Op2(CmpLT, c, TempOp(x), ImmOp(10))
	pb.Br(TempOp(c), thenB, elseB)
	pb.StartBlock(thenB)
	pb.Op2(Add, y, TempOp(x), ImmOp(1))
	pb.Jmp(join)
	pb.StartBlock(elseB)
	pb.Op2(Sub, y, TempOp(x), ImmOp(1))
	pb.Jmp(join)
	pb.StartBlock(join)
	pb.Ret(y)
	return b, pb
}

func TestBuilderProducesValidIR(t *testing.T) {
	b, pb := buildDiamond(t)
	if err := Validate(pb.P, b.Mach); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(pb.P.Blocks); got != 4 {
		t.Fatalf("blocks = %d, want 4", got)
	}
	// Entry has the convention move from the parameter register.
	first := pb.P.Entry().Instrs[0]
	if first.Op != Mov || first.Uses[0].Kind != KindReg {
		t.Fatalf("missing parameter convention move: %v", first.Op)
	}
}

func TestRenumberAssignsSequentialPositions(t *testing.T) {
	_, pb := buildDiamond(t)
	n := pb.P.Renumber()
	if n != pb.P.NumInstrs() {
		t.Fatalf("Renumber returned %d, NumInstrs %d", n, pb.P.NumInstrs())
	}
	want := int32(0)
	for _, blk := range pb.P.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Pos != want {
				t.Fatalf("pos %d, want %d", blk.Instrs[i].Pos, want)
			}
			want++
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	b, pb := buildDiamond(t)
	q := pb.P.Clone()
	q.Blocks[0].Instrs[0].Op = Nop
	q.Blocks[0].Instrs[0].Uses = nil
	if pb.P.Blocks[0].Instrs[0].Op == Nop {
		t.Fatal("Clone shares instruction storage")
	}
	// Cloned CFG must reference cloned blocks only.
	orig := map[*Block]bool{}
	for _, blk := range pb.P.Blocks {
		orig[blk] = true
	}
	for _, blk := range q.Blocks {
		for _, s := range blk.Succs {
			if orig[s] {
				t.Fatal("Clone references original blocks")
			}
		}
	}
	_ = b
}

// TestProcArenaDropsLargerProc clones a large procedure and then a small
// one into one arena, and checks that nothing of the large one is left
// reachable past the small one's arrays: stale blocks, edges,
// instructions, operands or names would pin the large procedure's
// storage for as long as the arena lives.
func TestProcArenaDropsLargerProc(t *testing.T) {
	mach := target.Tiny(6, 3)
	b := NewBuilder(mach, 16)
	big := b.NewProc("big", target.ClassInt)
	sum := big.IntTemp("sum")
	big.Ldi(sum, 0)
	for i := 0; i < 40; i++ {
		next := big.Block("b")
		big.Jmp(next)
		big.StartBlock(next)
		x := big.IntTemp("x")
		big.Ldi(x, int64(i))
		big.Op2(Add, sum, TempOp(sum), TempOp(x))
	}
	big.Ret(sum)
	_, small := buildDiamond(t)

	var a ProcArena
	a.Clone(big.P)
	q := a.Clone(small.P)
	if q.NumInstrs() != small.P.NumInstrs() || len(q.Blocks) != len(small.P.Blocks) {
		t.Fatal("second clone has the wrong shape")
	}
	tail := func(name string, n, l int, zero func(i int) bool) {
		for i := n; i < l; i++ {
			if !zero(i) {
				t.Fatalf("%s[%d] past the small clone's %d still holds the large one's", name, i, n)
			}
		}
	}
	tail("blocks", len(a.blocks), cap(a.blocks), func(i int) bool {
		b := a.blocks[:cap(a.blocks)][i]
		return b.Instrs == nil && b.Succs == nil && b.Preds == nil && b.Name == ""
	})
	tail("ptrs", len(a.ptrs), cap(a.ptrs), func(i int) bool { return a.ptrs[:cap(a.ptrs)][i] == nil })
	tail("instrs", len(a.instrs), cap(a.instrs), func(i int) bool {
		in := a.instrs[:cap(a.instrs)][i]
		return in.Defs == nil && in.Uses == nil && in.OrigDefs == nil && in.OrigUses == nil
	})
	tail("ops", len(a.ops), cap(a.ops), func(i int) bool { return a.ops[:cap(a.ops)][i] == Operand{} })
	tail("names", len(a.names), cap(a.names), func(i int) bool { return a.names[:cap(a.names)][i] == "" })
}

func TestSplitEdge(t *testing.T) {
	_, pb := buildDiamond(t)
	p := pb.P
	entry := p.Entry()
	thenB := entry.Succs[0]
	nb := p.SplitEdge(entry, thenB)
	if err := Validate(p, nil); err != nil {
		t.Fatalf("after split: %v", err)
	}
	if entry.Succs[0] != nb || nb.Succs[0] != thenB {
		t.Fatal("split edge not wired through new block")
	}
	if nb.Terminator().Op != Jmp {
		t.Fatal("split block must end in jmp")
	}
}

func TestValidateRejectsBadIR(t *testing.T) {
	mach := target.Tiny(6, 3)
	cases := map[string]func(pb *ProcBuilder){
		"terminator mid-block": func(pb *ProcBuilder) {
			p := pb.P
			blk := p.Entry()
			blk.Instrs = append([]Instr{{Op: Ret}}, blk.Instrs...)
		},
		"class mismatch": func(pb *ProcBuilder) {
			f := pb.P.NewTemp(target.ClassFloat, "f")
			blk := pb.P.Entry()
			bad := Instr{Op: Add, Defs: []Operand{TempOp(f)}, Uses: []Operand{TempOp(f), ImmOp(1)}}
			blk.Instrs = append([]Instr{bad}, blk.Instrs...)
		},
		"imm def": func(pb *ProcBuilder) {
			blk := pb.P.Entry()
			bad := Instr{Op: Mov, Defs: []Operand{ImmOp(1)}, Uses: []Operand{ImmOp(2)}}
			blk.Instrs = append([]Instr{bad}, blk.Instrs...)
		},
	}
	for name, corrupt := range cases {
		b := NewBuilder(mach, 8)
		pb := b.NewProc("main")
		z := pb.IntTemp("z")
		pb.Ldi(z, 0)
		pb.Ret(z)
		corrupt(pb)
		if err := Validate(pb.P, mach); err == nil {
			t.Errorf("%s: validation passed on corrupt IR", name)
		}
	}
}

func TestValidatePhysLiveness(t *testing.T) {
	mach := target.Tiny(6, 3)
	b := NewBuilder(mach, 8)
	pb := b.NewProc("main")
	z := pb.IntTemp("z")
	blk2 := pb.Block("b2")
	pb.Ldi(z, 1)
	pb.Jmp(blk2)
	pb.StartBlock(blk2)
	// Using a physical register never defined in this block makes it
	// live-in: illegal outside the entry.
	pb.Emit(Instr{Op: Mov, Defs: []Operand{TempOp(z)}, Uses: []Operand{RegOp(mach.Reg(target.ClassInt, 2))}})
	pb.Ret(z)
	if err := Validate(pb.P, mach); err == nil {
		t.Fatal("cross-block physical liveness not rejected")
	}
	if err := ValidateAllocated(pb.P, mach); err != nil {
		t.Fatalf("ValidateAllocated should skip the phys-local check: %v", err)
	}
}

func TestPrinterRoundNames(t *testing.T) {
	b, pb := buildDiamond(t)
	var sb strings.Builder
	(&Printer{Mach: b.Mach}).WriteProc(&sb, pb.P)
	out := sb.String()
	for _, want := range []string{"func f(arg0 int)", "br c, then, else", "jmp join", "ret"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printer output missing %q:\n%s", want, out)
		}
	}
}

func TestCallLowering(t *testing.T) {
	mach := target.Alpha()
	b := NewBuilder(mach, 8)
	pb := b.NewProc("main")
	x := pb.IntTemp("x")
	f := pb.FloatTemp("f")
	r := pb.IntTemp("r")
	pb.Ldi(x, 1)
	pb.FLdi(f, 2.0)
	pb.Call("mixed", r, TempOp(x), TempOp(f), ImmOp(7))
	pb.Ret(r)

	var call *Instr
	for i := range pb.P.Entry().Instrs {
		if pb.P.Entry().Instrs[i].Op == Call {
			call = &pb.P.Entry().Instrs[i]
		}
	}
	if call == nil {
		t.Fatal("no call emitted")
	}
	if call.CalleeName() != "mixed" {
		t.Fatalf("callee = %q", call.CalleeName())
	}
	// 3 argument registers: int param 0, float param 0, int param 1.
	if len(call.Uses) != 4 {
		t.Fatalf("call uses = %d, want sym+3 regs", len(call.Uses))
	}
	ip := mach.ParamRegs(target.ClassInt)
	fp := mach.ParamRegs(target.ClassFloat)
	if call.Uses[1].Reg != ip[0] || call.Uses[2].Reg != fp[0] || call.Uses[3].Reg != ip[1] {
		t.Fatal("argument registers assigned out of order")
	}
	if len(call.Defs) != 1 || call.Defs[0].Reg != mach.RetReg(target.ClassInt) {
		t.Fatal("return register wrong")
	}
	if err := ValidateProgram(b.Prog, mach); err != nil {
		t.Fatal(err)
	}
}

func TestOpPredicates(t *testing.T) {
	if !Jmp.IsTerminator() || !Br.IsTerminator() || !Ret.IsTerminator() {
		t.Fatal("terminators misclassified")
	}
	if Add.IsTerminator() || Call.IsTerminator() {
		t.Fatal("non-terminators misclassified")
	}
	if !Mov.IsMove() || !FMov.IsMove() || Add.IsMove() {
		t.Fatal("move predicate wrong")
	}
}

func TestTagStrings(t *testing.T) {
	want := map[Tag]string{
		TagNone: "orig", TagScanLoad: "evict.load", TagScanStore: "evict.store",
		TagScanMove: "evict.move", TagResolveLoad: "resolve.load",
		TagResolveStore: "resolve.store", TagResolveMove: "resolve.move",
		TagSave: "save", TagRestore: "restore",
	}
	for tag, s := range want {
		if tag.String() != s {
			t.Fatalf("Tag(%d).String() = %q, want %q", tag, tag.String(), s)
		}
	}
}
