package cfg

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
)

// buildNestedLoops constructs:
//
//	entry → outerHead → outerBody → innerHead → innerBody → innerHead
//	                 ↘ exit         innerHead → outerLatch → outerHead
func buildNestedLoops(t *testing.T) (*ir.Proc, map[string]*ir.Block) {
	t.Helper()
	mach := target.Tiny(6, 3)
	b := ir.NewBuilder(mach, 8)
	pb := b.NewProc("main")
	i := pb.IntTemp("i")
	j := pb.IntTemp("j")
	pb.Ldi(i, 0)

	outerHead := pb.Block("outerHead")
	outerBody := pb.Block("outerBody")
	innerHead := pb.Block("innerHead")
	innerBody := pb.Block("innerBody")
	outerLatch := pb.Block("outerLatch")
	exit := pb.Block("exit")

	pb.Jmp(outerHead)
	pb.StartBlock(outerHead)
	c := pb.IntTemp("c")
	pb.Op2(ir.CmpLT, c, ir.TempOp(i), ir.ImmOp(3))
	pb.Br(ir.TempOp(c), outerBody, exit)

	pb.StartBlock(outerBody)
	pb.Ldi(j, 0)
	pb.Jmp(innerHead)

	pb.StartBlock(innerHead)
	c2 := pb.IntTemp("c2")
	pb.Op2(ir.CmpLT, c2, ir.TempOp(j), ir.ImmOp(2))
	pb.Br(ir.TempOp(c2), innerBody, outerLatch)

	pb.StartBlock(innerBody)
	pb.Op2(ir.Add, j, ir.TempOp(j), ir.ImmOp(1))
	pb.Jmp(innerHead)

	pb.StartBlock(outerLatch)
	pb.Op2(ir.Add, i, ir.TempOp(i), ir.ImmOp(1))
	pb.Jmp(outerHead)

	pb.StartBlock(exit)
	pb.Ret(i)

	blocks := map[string]*ir.Block{}
	for _, blk := range pb.P.Blocks {
		blocks[blk.Name] = blk
	}
	return pb.P, blocks
}

// rpoBlocks runs the reverse-postorder walk on sc and returns its
// blocks.
func rpoBlocks(sc *Scratch, p *ir.Proc) []*ir.Block {
	sc.reversePostorder(p)
	var out []*ir.Block
	for _, o := range sc.rpo {
		out = append(out, p.Blocks[o])
	}
	return out
}

// idomOf returns b's immediate dominator from sc's last dominators run,
// or nil if b is unreachable.
func idomOf(sc *Scratch, p *ir.Proc, b *ir.Block) *ir.Block {
	n := sc.num[b.Order]
	if n < 0 {
		return nil
	}
	return p.Blocks[sc.rpo[sc.idom[n]]]
}

func TestReversePostorder(t *testing.T) {
	p, blocks := buildNestedLoops(t)
	rpo := rpoBlocks(new(Scratch), p)
	if len(rpo) != len(p.Blocks) {
		t.Fatalf("rpo covers %d of %d blocks", len(rpo), len(p.Blocks))
	}
	if rpo[0] != p.Entry() {
		t.Fatal("rpo must start at entry")
	}
	index := map[*ir.Block]int{}
	for i, b := range rpo {
		index[b] = i
	}
	// A block must appear before any successor it dominates-forward into
	// (loop back edges excepted). Spot checks:
	if index[blocks["outerHead"]] > index[blocks["outerBody"]] {
		t.Fatal("outerHead after outerBody in RPO")
	}
	if index[blocks["innerHead"]] > index[blocks["innerBody"]] {
		t.Fatal("innerHead after innerBody in RPO")
	}
}

func TestDominators(t *testing.T) {
	p, blocks := buildNestedLoops(t)
	var sc Scratch
	sc.dominators(p)
	entry := p.Entry()
	if idomOf(&sc, p, entry) != entry {
		t.Fatal("entry must dominate itself")
	}
	wants := map[string]string{
		"outerHead":  "entry",
		"outerBody":  "outerHead",
		"innerHead":  "outerBody",
		"innerBody":  "innerHead",
		"outerLatch": "innerHead",
		"exit":       "outerHead",
	}
	for blk, dom := range wants {
		if got := idomOf(&sc, p, blocks[blk]); got == nil || got.Name != dom {
			t.Fatalf("idom(%s) = %v, want %s", blk, got, dom)
		}
	}
	num := func(name string) int32 { return sc.num[blocks[name].Order] }
	if !sc.dominates(sc.num[entry.Order], num("innerBody")) {
		t.Fatal("entry must dominate innerBody")
	}
	if sc.dominates(num("innerBody"), num("exit")) {
		t.Fatal("innerBody must not dominate exit")
	}
}

func TestLoopDepths(t *testing.T) {
	p, blocks := buildNestedLoops(t)
	new(Scratch).ComputeLoopDepths(p)
	wants := map[string]int{
		"entry": 0, "outerHead": 1, "outerBody": 1,
		"innerHead": 2, "innerBody": 2, "outerLatch": 1, "exit": 0,
	}
	for name, depth := range wants {
		if blocks[name].Depth != depth {
			t.Fatalf("depth(%s) = %d, want %d", name, blocks[name].Depth, depth)
		}
	}
}

func TestIsCriticalEdge(t *testing.T) {
	p, blocks := buildNestedLoops(t)
	_ = p
	// outerHead→outerBody: outerHead has 2 succs, outerBody has 1 pred:
	// not critical. outerHead→exit: exit has 1 pred: not critical.
	if IsCriticalEdge(blocks["outerHead"], blocks["outerBody"]) {
		t.Fatal("outerHead->outerBody wrongly critical")
	}
	// innerHead→outerLatch: innerHead 2 succs, outerLatch 1 pred: no.
	if IsCriticalEdge(blocks["innerHead"], blocks["outerLatch"]) {
		t.Fatal("innerHead->outerLatch wrongly critical")
	}
	// Make a genuinely critical edge: innerHead (2 succs) → innerBody
	// after giving innerBody a second predecessor.
	ir.AddEdge(blocks["outerLatch"], blocks["innerBody"])
	if !IsCriticalEdge(blocks["innerHead"], blocks["innerBody"]) {
		t.Fatal("critical edge not detected")
	}
}

func TestUnreachableBlocksHandled(t *testing.T) {
	p, _ := buildNestedLoops(t)
	dead := p.NewBlock("dead")
	dead.Instrs = []ir.Instr{{Op: ir.Ret}}
	var sc Scratch
	for _, b := range rpoBlocks(&sc, p) {
		if b == dead {
			t.Fatal("unreachable block in RPO")
		}
	}
	sc.dominators(p)
	if idomOf(&sc, p, dead) != nil {
		t.Fatal("unreachable block has an idom")
	}
	sc.ComputeLoopDepths(p) // must not panic
}

// TestScratchReuse runs one Scratch over every procedure of the golden
// corpus, large and small in turn, and requires the depths a fresh
// Scratch gives: nothing a larger procedure left in the tables may leak
// into a smaller one's analysis.
func TestScratchReuse(t *testing.T) {
	mach := target.Alpha()
	var shared Scratch
	names, ps := progs.GoldenCorpus(mach)
	for i, prog := range ps {
		for _, orig := range prog.Procs {
			p := orig.Clone()
			p.Renumber()
			new(Scratch).ComputeLoopDepths(p)
			want := make([]int, len(p.Blocks))
			for j, b := range p.Blocks {
				want[j], b.Depth = b.Depth, -1
			}
			shared.ComputeLoopDepths(p)
			for j, b := range p.Blocks {
				if b.Depth != want[j] {
					t.Fatalf("%s %s block %s: depth %d on a reused Scratch, %d on a fresh one",
						names[i], p.Name, b.Name, b.Depth, want[j])
				}
			}
		}
	}
}
