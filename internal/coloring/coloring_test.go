package coloring

import (
	"bytes"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/target"
	"repro/internal/vm"
)

// buildTestProg mirrors the core package's smoke workload: a loop with a
// diamond, a call, and a configurable number of accumulators, printing a
// checksum.
func buildTestProg(mach *target.Machine, accs int, iters int64) *ir.Program {
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
	pb.Call("getc", ch)
	pb.Op2(ir.Add, sums[0], ir.TempOp(sums[0]), ir.TempOp(ch))
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

func TestColoringSmoke(t *testing.T) {
	input := []byte("input bytes for the coloring smoke test....")
	for _, tc := range []struct {
		name string
		mach *target.Machine
		accs int
	}{
		{"alpha_light", target.Alpha(), 4},
		{"alpha_heavy", target.Alpha(), 30},
		{"tiny6_3", target.Tiny(6, 3), 8},
		{"tiny4_2", target.Tiny(4, 2), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := buildTestProg(tc.mach, tc.accs, 13)
			if err := ir.ValidateProgram(prog, tc.mach); err != nil {
				t.Fatalf("input invalid: %v", err)
			}
			want, err := vm.Run(prog, vm.Config{Mach: tc.mach, Input: input})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			c := prog.Proc("main").Clone()
			c.Renumber()
			res, err := New(tc.mach).Allocate(c, dataflow.Compute(c), nil)
			if err != nil {
				t.Fatalf("allocate: %v", err)
			}
			opt.Peephole(res.Proc)
			if err := ir.ValidateAllocated(res.Proc, tc.mach); err != nil {
				t.Fatalf("allocated invalid: %v\n%s", err, ir.ProcString(res.Proc))
			}
			allocd := ir.NewProgram(prog.MemWords)
			allocd.AddProc(res.Proc)
			got, err := vm.Run(allocd, vm.Config{Mach: tc.mach, Input: input, Paranoid: true})
			if err != nil {
				pr := &ir.Printer{Mach: tc.mach, Tags: true}
				var sb bytes.Buffer
				pr.WriteProc(&sb, res.Proc)
				t.Fatalf("allocated run: %v\n%s", err, sb.String())
			}
			if !bytes.Equal(want.Output, got.Output) || want.RetValue != got.RetValue {
				pr := &ir.Printer{Mach: tc.mach, Tags: true}
				var sb bytes.Buffer
				pr.WriteProc(&sb, res.Proc)
				t.Fatalf("mismatch: want %q/%d got %q/%d\n%s",
					want.Output, want.RetValue, got.Output, got.RetValue, sb.String())
			}
		})
	}
}

// TestCoalescingRemovesParamMoves checks that iterated coalescing deletes
// the convention moves (the property George/Appel report and the paper
// leans on when explaining the move-count gap in Table 1).
func TestCoalescingRemovesParamMoves(t *testing.T) {
	mach := target.Alpha()
	b := ir.NewBuilder(mach, 16)
	pb := b.NewProc("f", target.ClassInt, target.ClassInt)
	x, y := pb.P.Params[0], pb.P.Params[1]
	z := pb.IntTemp("z")
	pb.Op2(ir.Add, z, ir.TempOp(x), ir.TempOp(y))
	pb.Ret(z)

	c := pb.P.Clone()

	c.Renumber()
	res, err := New(mach).Allocate(c, dataflow.Compute(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	opt.Peephole(res.Proc) // deletes the self-moves coalescing left behind
	moves := 0
	for _, blk := range res.Proc.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op.IsMove() {
				moves++
			}
		}
	}
	if moves != 0 {
		t.Fatalf("expected all convention moves coalesced away, found %d:\n%s",
			moves, ir.ProcString(res.Proc))
	}
}
