package linearscan

import (
	"bytes"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/progs"
	"repro/internal/target"
	"repro/internal/verify"
	"repro/internal/vm"
)

func TestPolettoOnRandomPrograms(t *testing.T) {
	for _, mach := range []*target.Machine{target.Alpha(), target.Tiny(8, 5)} {
		for seed := int64(20); seed < 28; seed++ {
			prog := progs.Random(mach, progs.DefaultGen(seed))
			input := []byte("linear-scan-test-input")
			want, err := vm.Run(prog, vm.Config{Mach: mach, Input: input})
			if err != nil {
				t.Fatal(err)
			}
			allocd := ir.NewProgram(prog.MemWords)
			for a, v := range prog.MemInit {
				allocd.SetMem(a, v)
			}
			for _, p := range prog.Procs {
				c := p.Clone()
				c.Renumber()
				res, err := New(mach).Allocate(c, dataflow.Compute(c), nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := verify.Verify(res.Proc, mach); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				opt.Peephole(res.Proc)
				allocd.AddProc(res.Proc)
			}
			got, err := vm.Run(allocd, vm.Config{Mach: mach, Input: input, Paranoid: true})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !bytes.Equal(want.Output, got.Output) || want.RetValue != got.RetValue {
				t.Fatalf("seed %d on %s: mismatch", seed, mach.Name)
			}
		}
	}
}

// TestNoHolesExploited distinguishes Poletto linear scan from the
// binpacking allocators: two temporaries whose flat intervals overlap
// must get different registers even when one would fit in the other's
// lifetime hole.
func TestNoHolesExploited(t *testing.T) {
	mach := target.Tiny(8, 3)
	b := ir.NewBuilder(mach, 8)
	pb := b.NewProc("main")
	// long: defined, long hole, then redefined and used.
	long := pb.IntTemp("long")
	short := pb.IntTemp("short")
	u := pb.IntTemp("u")
	pb.Ldi(long, 1)
	pb.Op2(ir.Add, u, ir.TempOp(long), ir.ImmOp(0)) // last use before hole
	pb.Ldi(short, 5)                                // short lives inside long's hole
	pb.Op2(ir.Add, u, ir.TempOp(u), ir.TempOp(short))
	pb.Ldi(long, 2) // hole ends (write)
	pb.Op2(ir.Add, u, ir.TempOp(u), ir.TempOp(long))
	pb.Ret(u)

	c := pb.P.Clone()

	c.Renumber()
	res, err := New(mach).Allocate(c, dataflow.Compute(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Recover assignments from rewritten operands via OrigUses.
	regOf := map[string]target.Reg{}
	for _, blk := range res.Proc.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			for ui, ot := range in.OrigUses {
				if ot != ir.NoTemp && in.Uses[ui].Kind == ir.KindReg {
					regOf[res.Proc.TempName(ot)] = in.Uses[ui].Reg
				}
			}
		}
	}
	if regOf["long"] == regOf["short"] {
		t.Fatalf("Poletto linear scan must not share a register through a hole: %v", regOf)
	}
}

func TestSuiteUnderLinearScan(t *testing.T) {
	mach := target.Alpha()
	for _, name := range []string{"eqntott", "wc", "sort"} {
		bench := progs.Named(name)
		prog := bench.Build(mach, 1)
		var input []byte
		if bench.Input != nil {
			input = bench.Input(1)
		}
		want, err := vm.Run(prog, vm.Config{Mach: mach, Input: input})
		if err != nil {
			t.Fatal(err)
		}
		allocd := ir.NewProgram(prog.MemWords)
		for a, v := range prog.MemInit {
			allocd.SetMem(a, v)
		}
		for _, p := range prog.Procs {
			c := p.Clone()
			c.Renumber()
			res, err := New(mach).Allocate(c, dataflow.Compute(c), nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			opt.Peephole(res.Proc)
			allocd.AddProc(res.Proc)
		}
		got, err := vm.Run(allocd, vm.Config{Mach: mach, Input: input, Paranoid: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(want.Output, got.Output) {
			t.Fatalf("%s output mismatch", name)
		}
	}
}
