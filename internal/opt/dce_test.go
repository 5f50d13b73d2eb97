package opt_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/ir"
	"repro/internal/target"
)

// Dead-code elimination runs as rounds of Scratch.Liveness and
// Scratch.RemoveDead, driven by alloc.Prepare; these tests run it there,
// on the loop the pipeline runs.

func TestDeadCodeElim(t *testing.T) {
	mach := target.Tiny(6, 3)
	b := ir.NewBuilder(mach, 8)
	pb := b.NewProc("main")
	x := pb.IntTemp("x")
	dead := pb.IntTemp("dead")
	dead2 := pb.IntTemp("dead2")
	pb.Ldi(x, 1)
	pb.Ldi(dead2, 9)                                    // only feeds dead
	pb.Op2(ir.Add, dead, ir.TempOp(dead2), ir.ImmOp(1)) // dead
	pb.Op2(ir.Add, x, ir.TempOp(x), ir.ImmOp(1))        // live
	pb.St(ir.TempOp(x), ir.ImmOp(0), 0)                 // side effect: kept
	pb.Ret(x)

	before := pb.P.NumInstrs()
	p, _ := alloc.Prepare(pb.P, nil, nil)
	if removed := before - p.NumInstrs(); removed != 2 {
		t.Fatalf("removed %d, want 2 (transitively dead chain)", removed)
	}
	if pb.P.NumInstrs() != before {
		t.Fatal("Prepare modified its input")
	}
	if err := ir.Validate(p, mach); err != nil {
		t.Fatal(err)
	}
}

func TestDCEKeepsPhysicalDefsAndCalls(t *testing.T) {
	mach := target.Tiny(6, 3)
	b := ir.NewBuilder(mach, 8)
	pb := b.NewProc("main")
	x := pb.IntTemp("x")
	pb.Call("getc", x) // call result unused: the call must stay
	y := pb.IntTemp("y")
	pb.Ldi(y, 3)
	pb.Ret(y)
	calls := 0
	p, _ := alloc.Prepare(pb.P, nil, nil)
	for _, blk := range p.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == ir.Call {
				calls++
			}
		}
	}
	// main has one call (getc); Ret emits a convention move, not a call.
	if calls != 1 {
		t.Fatalf("calls after DCE = %d", calls)
	}
}
