package core

import (
	"bytes"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/target"
	"repro/internal/vm"
)

// buildLoopProg builds a program with a loop, a branch diamond, a call in
// the loop, and enough integer temporaries to force spilling on small
// machines: it accumulates several running sums over the loop counter and
// prints a checksum.
func buildLoopProg(mach *target.Machine, accs int, iters int64) *ir.Program {
	b := ir.NewBuilder(mach, 64)
	pb := b.NewProc("main")

	n := pb.IntTemp("n")
	i := pb.IntTemp("i")
	pb.Ldi(n, iters)
	pb.Ldi(i, 0)
	sums := make([]ir.Temp, accs)
	for k := range sums {
		sums[k] = pb.IntTemp("")
		pb.Ldi(sums[k], int64(k))
	}

	head := pb.Block("head")
	body := pb.Block("body")
	then := pb.Block("then")
	els := pb.Block("els")
	join := pb.Block("join")
	exit := pb.Block("exit")

	pb.Jmp(head)

	pb.StartBlock(head)
	c := pb.IntTemp("c")
	pb.Op2(ir.CmpLT, c, ir.TempOp(i), ir.TempOp(n))
	pb.Br(ir.TempOp(c), body, exit)

	pb.StartBlock(body)
	for k := range sums {
		pb.Op2(ir.Add, sums[k], ir.TempOp(sums[k]), ir.TempOp(i))
	}
	parity := pb.IntTemp("parity")
	pb.Op2(ir.And, parity, ir.TempOp(i), ir.ImmOp(1))
	pb.Br(ir.TempOp(parity), then, els)

	pb.StartBlock(then)
	pb.Op2(ir.Add, sums[0], ir.TempOp(sums[0]), ir.ImmOp(7))
	pb.Jmp(join)

	pb.StartBlock(els)
	pb.Op2(ir.Sub, sums[0], ir.TempOp(sums[0]), ir.ImmOp(3))
	pb.Jmp(join)

	pb.StartBlock(join)
	ch := pb.IntTemp("ch")
	pb.Call("getc", ch) // clobbers caller-saved registers
	pb.Op2(ir.Add, sums[1%accs], ir.TempOp(sums[1%accs]), ir.TempOp(ch))
	pb.Op2(ir.Add, i, ir.TempOp(i), ir.ImmOp(1))
	pb.Jmp(head)

	pb.StartBlock(exit)
	total := pb.IntTemp("total")
	pb.Ldi(total, 0)
	for k := range sums {
		pb.Op2(ir.Xor, total, ir.TempOp(total), ir.TempOp(sums[k]))
		pb.Op2(ir.Add, total, ir.TempOp(total), ir.TempOp(sums[k]))
	}
	pb.Call("puti", ir.NoTemp, ir.TempOp(total))
	pb.Ret(total)
	return b.Prog
}

func runBoth(t *testing.T, mach *target.Machine, prog *ir.Program, a alloc.Allocator, input []byte) {
	t.Helper()
	if err := ir.ValidateProgram(prog, mach); err != nil {
		t.Fatalf("input program invalid: %v", err)
	}
	want, err := vm.Run(prog, vm.Config{Mach: mach, Input: input})
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}

	allocd := ir.NewProgram(prog.MemWords)
	allocd.Main = prog.Main
	for a2, v := range prog.MemInit {
		allocd.SetMem(a2, v)
	}
	for _, p := range prog.Procs {
		c := p.Clone()
		c.Renumber()
		res, err := a.Allocate(c, dataflow.Compute(c), nil)
		if err != nil {
			t.Fatalf("allocate %s: %v", p.Name, err)
		}
		opt.Peephole(res.Proc)
		if err := ir.ValidateAllocated(res.Proc, mach); err != nil {
			t.Fatalf("allocated %s invalid: %v\n%s", p.Name, err, ir.ProcString(res.Proc))
		}
		allocd.AddProc(res.Proc.Clone()) // the allocator's scratch holds it until the next proc
	}
	got, err := vm.Run(allocd, vm.Config{Mach: mach, Input: input, Paranoid: true})
	if err != nil {
		pr := &ir.Printer{Mach: mach, Tags: true}
		var sb bytes.Buffer
		pr.WriteProc(&sb, allocd.Proc(prog.Main))
		t.Fatalf("allocated run failed: %v\n%s", err, sb.String())
	}
	if !bytes.Equal(want.Output, got.Output) || want.RetValue != got.RetValue {
		pr := &ir.Printer{Mach: mach, Tags: true}
		var sb bytes.Buffer
		pr.WriteProc(&sb, allocd.Proc(prog.Main))
		t.Fatalf("output mismatch:\nwant %q ret %d\ngot  %q ret %d\n%s",
			want.Output, want.RetValue, got.Output, got.RetValue, sb.String())
	}
}

func TestSmokeSecondChance(t *testing.T) {
	input := []byte("hello world, this is input for the vm smoke test")
	for _, tc := range []struct {
		name string
		mach *target.Machine
		accs int
	}{
		{"alpha_light", target.Alpha(), 4},
		{"alpha_heavy", target.Alpha(), 30},
		{"tiny6_3", target.Tiny(6, 3), 8},
		{"tiny4_2", target.Tiny(4, 2), 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := buildLoopProg(tc.mach, tc.accs, 13)
			runBoth(t, tc.mach, prog, NewDefault(tc.mach), input)
		})
	}
}

func TestSmokeTwoPass(t *testing.T) {
	input := []byte("abcdefgh")
	opts := DefaultOptions()
	opts.SecondChance = false
	for _, tc := range []struct {
		name string
		mach *target.Machine
		accs int
	}{
		{"alpha", target.Alpha(), 12},
		{"tiny8_4", target.Tiny(8, 4), 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := buildLoopProg(tc.mach, tc.accs, 9)
			runBoth(t, tc.mach, prog, New(tc.mach, opts), input)
		})
	}
}

func TestSmokeOptionVariants(t *testing.T) {
	input := []byte("variant-test-input")
	mach := target.Tiny(6, 3)
	variants := map[string]Options{
		"no_moveopt":     {SecondChance: true, EarlySecondChance: true},
		"no_early":       {SecondChance: true, MoveOpt: true},
		"strict_linear":  {SecondChance: true, MoveOpt: true, EarlySecondChance: true, StrictLinear: true},
		"plain_distance": {SecondChance: true, MoveOpt: true, EarlySecondChance: true, Heuristic: HeuristicPlainDistance},
		"bare":           {SecondChance: true},
	}
	for name, o := range variants {
		t.Run(name, func(t *testing.T) {
			prog := buildLoopProg(mach, 10, 11)
			runBoth(t, mach, prog, New(mach, o), input)
		})
	}
}

// TestSourcesHoldEveryRegister allocates float arithmetic on machines
// with two float registers, where an instruction's two sources stay
// live after it and hold both registers. The destination must take a
// source's register (spilling the source) rather than fail allocation.
func TestSourcesHoldEveryRegister(t *testing.T) {
	for _, mach := range []*target.Machine{target.Tiny(3, 2), target.Tiny(6, 2)} {
		b := ir.NewBuilder(mach, 16)
		pb := b.NewProc("main")
		x, y, z, w := pb.FloatTemp("x"), pb.FloatTemp("y"), pb.FloatTemp("z"), pb.FloatTemp("w")
		pb.FLdi(x, 2.5)
		pb.FLdi(y, 4)
		pb.Op2(ir.FMul, z, ir.TempOp(x), ir.TempOp(y)) // x and y live on
		pb.Op2(ir.FSub, w, ir.TempOp(z), ir.TempOp(x)) // z and x live on
		pb.Op2(ir.FAdd, w, ir.TempOp(w), ir.TempOp(y))
		pb.Op2(ir.FAdd, w, ir.TempOp(w), ir.TempOp(z))
		pb.Op2(ir.FAdd, w, ir.TempOp(w), ir.TempOp(x))
		r := pb.IntTemp("r")
		pb.Op1(ir.CvtFI, r, ir.TempOp(w))
		pb.Call("puti", ir.NoTemp, ir.TempOp(r))
		pb.Ret(r)

		twoPass := DefaultOptions()
		twoPass.SecondChance = false
		for name, a := range map[string]alloc.Allocator{
			"binpack": NewDefault(mach),
			"twopass": New(mach, twoPass),
			"bare":    New(mach, Options{SecondChance: true}),
		} {
			t.Run(mach.Name+"/"+name, func(t *testing.T) {
				runBoth(t, mach, b.Prog, a, nil)
			})
		}
	}
}

// TestResolveDropsLargerProc allocates a large procedure and then a
// small one on one Allocator and checks that the pooled buffer holding
// the resolved code keeps nothing of the large one past the small one's
// instructions: a stale instruction would pin its operand arrays for as
// long as the allocator lives.
func TestResolveDropsLargerProc(t *testing.T) {
	mach := target.Tiny(6, 3)
	a := NewDefault(mach)
	for _, prog := range []*ir.Program{buildLoopProg(mach, 30, 13), buildLoopProg(mach, 2, 13)} {
		c := prog.Procs[0].Clone()
		c.Renumber()
		if _, err := a.Allocate(c, dataflow.Compute(c), nil); err != nil {
			t.Fatal(err)
		}
	}
	final := a.scratch.final
	for i, in := range final[len(final):cap(final)] {
		if in.Defs != nil || in.Uses != nil || in.OrigDefs != nil || in.OrigUses != nil {
			t.Fatalf("instruction %d past the small procedure's %d still holds the large one's operands", len(final)+i, len(final))
		}
	}
}
