package core

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/target"
	"repro/internal/vm"
)

// TestFigure2Resolution reproduces the paper's Figure 2: a diamond with
// five integer lifetimes but only two registers. T1 is defined in B1,
// spilled in B2 (which holds three competing lifetimes), and used in B3
// and B4. The allocator must insert an eviction store on the B2 path, a
// second-chance reload in B3 (in a different register), and resolution
// code on the edges so both join paths agree — which the VM then
// validates by producing the same result as the unallocated program.
func TestFigure2Resolution(t *testing.T) {
	// Two allocatable integer registers, as in the figure. (A third
	// integer register exists but is reserved for parameters by the
	// convention; we keep all five temporaries away from calls.)
	mach := target.MustNew(target.Config{
		Name: "fig2", NumInt: 2, NumFloat: 1,
		CallerSavedInt:   []int{0, 1},
		CallerSavedFloat: []int{0},
		IntParams:        []int{1},
		FloatParams:      []int{0},
		IntRet:           0,
		FloatRet:         0,
	})
	b := ir.NewBuilder(mach, 16)
	pb := b.NewProc("main")

	t1 := pb.IntTemp("T1")
	b2 := pb.Block("B2")
	b3 := pb.Block("B3")
	b4 := pb.Block("B4")

	// B1: i1: T1 ← 11 ; i2: .. ← T1
	pb.Ldi(t1, 11)
	cond := pb.IntTemp("cond")
	pb.Op2(ir.CmpLT, cond, ir.TempOp(t1), ir.ImmOp(100)) // uses T1 (i2)
	pb.Br(ir.TempOp(cond), b2, b3)

	// B2: three short lifetimes force T1 out of its register.
	pb.StartBlock(b2)
	a := pb.IntTemp("a")
	bb := pb.IntTemp("b")
	cc := pb.IntTemp("c")
	pb.Ldi(a, 1)
	pb.Ldi(bb, 2)
	pb.Ldi(cc, 3)
	pb.Op2(ir.Add, a, ir.TempOp(a), ir.TempOp(bb))
	pb.Op2(ir.Add, a, ir.TempOp(a), ir.TempOp(cc))
	pb.St(ir.TempOp(a), ir.ImmOp(0), 0)
	pb.Jmp(b4)

	// B3: i3: .. ← T1 ; i4: T1 ← ..
	pb.StartBlock(b3)
	d := pb.IntTemp("d")
	pb.Op2(ir.Add, d, ir.TempOp(t1), ir.ImmOp(5)) // i3 reads T1
	pb.St(ir.TempOp(d), ir.ImmOp(1), 0)
	pb.Ldi(t1, 77) // i4 writes T1
	pb.Jmp(b4)

	// B4: uses T1 from both paths.
	pb.StartBlock(b4)
	out := pb.IntTemp("out")
	pb.Op2(ir.Add, out, ir.TempOp(t1), ir.ImmOp(1000))
	pb.Ret(out)

	want, err := vm.Run(b.Prog, vm.Config{Mach: mach})
	if err != nil {
		t.Fatal(err)
	}

	c := pb.P.Clone()

	c.Renumber()
	res, err := NewDefault(mach).Allocate(c, dataflow.Compute(c), nil)
	if err != nil {
		t.Fatalf("allocate: %v\n%s", err, ir.ProcString(pb.P))
	}

	// The allocation must have spilled T1 (three competing lifetimes in
	// B2, two registers) and used second-chance machinery: at least one
	// eviction store and, on some path, resolution code.
	var evictStores, reloads, resolveOps int
	for _, blk := range res.Proc.Blocks {
		for i := range blk.Instrs {
			switch blk.Instrs[i].Tag {
			case ir.TagScanStore:
				evictStores++
			case ir.TagScanLoad:
				reloads++
			case ir.TagResolveLoad, ir.TagResolveStore, ir.TagResolveMove:
				resolveOps++
			}
		}
	}
	if evictStores == 0 {
		t.Errorf("expected an eviction store (i5 in the figure), found none:\n%s", ir.ProcString(res.Proc))
	}
	if reloads+resolveOps == 0 {
		t.Errorf("expected second-chance reloads or resolution code:\n%s", ir.ProcString(res.Proc))
	}

	allocd := ir.NewProgram(b.Prog.MemWords)
	allocd.AddProc(res.Proc)
	got, err := vm.Run(allocd, vm.Config{Mach: mach, Paranoid: true})
	if err != nil {
		t.Fatalf("allocated run: %v\n%s", err, ir.ProcString(res.Proc))
	}
	if got.RetValue != want.RetValue {
		t.Fatalf("ret = %d, want %d\n%s", got.RetValue, want.RetValue, ir.ProcString(res.Proc))
	}
}

// TestConsistencySuppressesStores checks §2.3's store-inhibition: a value
// reloaded from memory and then evicted again without an intervening
// write must not be stored a second time.
func TestConsistencySuppressesStores(t *testing.T) {
	mach := target.Tiny(4, 2)
	b := ir.NewBuilder(mach, 16)
	pb := b.NewProc("main")

	// x is written once, then repeatedly read while heavy pressure
	// cycles it through memory; only one store of x should ever appear.
	x := pb.IntTemp("x")
	pb.Ldi(x, 42)
	acc := pb.IntTemp("acc")
	pb.Ldi(acc, 0)
	for i := 0; i < 4; i++ {
		// Pressure burst: three fresh simultaneously-live values.
		p1 := pb.IntTemp("")
		p2 := pb.IntTemp("")
		p3 := pb.IntTemp("")
		pb.Ldi(p1, int64(i))
		pb.Ldi(p2, int64(i+1))
		pb.Ldi(p3, int64(i+2))
		pb.Op2(ir.Add, p1, ir.TempOp(p1), ir.TempOp(p2))
		pb.Op2(ir.Add, p1, ir.TempOp(p1), ir.TempOp(p3))
		pb.Op2(ir.Add, acc, ir.TempOp(acc), ir.TempOp(p1))
		// Read x (never written again).
		pb.Op2(ir.Add, acc, ir.TempOp(acc), ir.TempOp(x))
	}
	pb.Ret(acc)

	c := pb.P.Clone()

	c.Renumber()
	res, err := NewDefault(mach).Allocate(c, dataflow.Compute(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	storesOfX := 0
	for _, blk := range res.Proc.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.Op == ir.SpillSt && in.Uses[1].Kind == ir.KindSlot &&
				in.Uses[1].Temp != ir.NoTemp && res.Proc.TempName(in.Uses[1].Temp) == "x" {
				storesOfX++
			}
		}
	}
	if storesOfX > 1 {
		t.Fatalf("x stored %d times; consistency should suppress repeats:\n%s",
			storesOfX, ir.ProcString(res.Proc))
	}
}

// TestMoveOptCoalescesParamMove checks §2.5: the convention move from a
// parameter register is eliminated when the parameter's lifetime fits
// the register's hole.
func TestMoveOptCoalescesParamMove(t *testing.T) {
	mach := target.Alpha()
	b := ir.NewBuilder(mach, 8)
	pb := b.NewProc("f", target.ClassInt)
	x := pb.P.Params[0]
	y := pb.IntTemp("y")
	pb.Op2(ir.Add, y, ir.TempOp(x), ir.ImmOp(1))
	pb.Ret(y)

	c := pb.P.Clone()

	c.Renumber()
	res, err := NewDefault(mach).Allocate(c, dataflow.Compute(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The param move must have become a self-move (deleted by peephole).
	selfMoves := 0
	for _, blk := range res.Proc.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.Op.IsMove() && in.Uses[0].Kind == ir.KindReg && in.Defs[0].Kind == ir.KindReg &&
				in.Uses[0].Reg == in.Defs[0].Reg {
				selfMoves++
			}
		}
	}
	if selfMoves == 0 {
		t.Fatalf("param move not coalesced:\n%s", ir.ProcString(res.Proc))
	}

	// Without the optimization the move must remain a real move.
	o := DefaultOptions()
	o.MoveOpt = false
	c = pb.P.Clone()
	c.Renumber()
	res2, err := New(mach, o).Allocate(c, dataflow.Compute(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	realMoves := 0
	for _, blk := range res2.Proc.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.Op.IsMove() && in.Uses[0].Kind == ir.KindReg && in.Defs[0].Kind == ir.KindReg &&
				in.Uses[0].Reg != in.Defs[0].Reg {
				realMoves++
			}
		}
	}
	if realMoves == 0 {
		t.Fatal("expected a real convention move without MoveOpt")
	}
}
