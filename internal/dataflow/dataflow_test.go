package dataflow

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
)

// buildLoop constructs a loop where `acc` is live around the back edge,
// `n` is live from entry, and `tmp` is block-local.
func buildLoop(t *testing.T) (*ir.Proc, map[string]ir.Temp) {
	t.Helper()
	b := ir.NewBuilder(target.Tiny(6, 3), 8)
	pb := b.NewProc("main")
	n := pb.IntTemp("n")
	acc := pb.IntTemp("acc")
	i := pb.IntTemp("i")
	pb.Ldi(n, 10)
	pb.Ldi(acc, 0)
	pb.Ldi(i, 0)

	head := pb.Block("head")
	body := pb.Block("body")
	exit := pb.Block("exit")
	pb.Jmp(head)

	pb.StartBlock(head)
	c := pb.IntTemp("c")
	pb.Op2(ir.CmpLT, c, ir.TempOp(i), ir.TempOp(n))
	pb.Br(ir.TempOp(c), body, exit)

	pb.StartBlock(body)
	tmp := pb.IntTemp("tmp")
	pb.Op2(ir.Mul, tmp, ir.TempOp(i), ir.TempOp(i))
	pb.Op2(ir.Add, acc, ir.TempOp(acc), ir.TempOp(tmp))
	pb.Op2(ir.Add, i, ir.TempOp(i), ir.ImmOp(1))
	pb.Jmp(head)

	pb.StartBlock(exit)
	pb.Ret(acc)

	pb.P.Renumber()
	return pb.P, map[string]ir.Temp{"n": n, "acc": acc, "i": i, "tmp": tmp, "c": c}
}

func blockByName(p *ir.Proc, name string) *ir.Block {
	for _, b := range p.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

func TestLivenessLoop(t *testing.T) {
	p, temps := buildLoop(t)
	lv := Compute(p)

	// tmp and c are block-local: excluded from the global universe.
	if lv.GlobalIndex(temps["tmp"]) >= 0 {
		t.Fatal("block-local tmp in global universe")
	}
	if lv.GlobalIndex(temps["c"]) >= 0 {
		t.Fatal("block-local c in global universe")
	}
	// n, acc, i are global.
	for _, name := range []string{"n", "acc", "i"} {
		if lv.GlobalIndex(temps[name]) < 0 {
			t.Fatalf("%s missing from global universe", name)
		}
	}

	head := blockByName(p, "head")
	body := blockByName(p, "body")
	exit := blockByName(p, "exit")

	liveIn := func(b *ir.Block, tmp ir.Temp) bool {
		gi := lv.GlobalIndex(tmp)
		return gi >= 0 && lv.LiveIn[b.Order].Contains(gi)
	}
	liveOut := func(b *ir.Block, tmp ir.Temp) bool {
		gi := lv.GlobalIndex(tmp)
		return gi >= 0 && lv.LiveOut[b.Order].Contains(gi)
	}

	if !liveIn(head, temps["acc"]) || !liveIn(head, temps["n"]) || !liveIn(head, temps["i"]) {
		t.Fatal("loop-carried values must be live into the loop head")
	}
	if !liveOut(body, temps["acc"]) {
		t.Fatal("acc must be live out of the loop body (back edge)")
	}
	if !liveIn(exit, temps["acc"]) {
		t.Fatal("acc must be live into exit (returned)")
	}
	if liveIn(exit, temps["n"]) {
		t.Fatal("n must be dead at exit")
	}
	if liveOut(exit, temps["acc"]) {
		t.Fatal("nothing is live out of a returning block")
	}
}

func TestLiveOutTempsHelpers(t *testing.T) {
	p, temps := buildLoop(t)
	lv := Compute(p)
	body := blockByName(p, "body")
	outs := lv.LiveOutTemps(body, nil)
	found := false
	for _, tt := range outs {
		if tt == temps["acc"] {
			found = true
		}
	}
	if !found {
		t.Fatal("LiveOutTemps missing acc")
	}
	ins := lv.LiveInTemps(body, nil)
	if len(ins) == 0 {
		t.Fatal("LiveInTemps empty for body")
	}
}

// TestSolverFixpoint checks the generic backward solver on a handcrafted
// gen/kill instance against manually computed results.
func TestSolverFixpoint(t *testing.T) {
	p, _ := buildLoop(t)
	n := 2
	gen := make([]*bitset.Set, len(p.Blocks))
	kill := make([]*bitset.Set, len(p.Blocks))
	for _, b := range p.Blocks {
		gen[b.Order] = bitset.New(n)
		kill[b.Order] = bitset.New(n)
	}
	// bit 0 generated in exit; killed in body. bit 1 generated in body.
	gen[blockByName(p, "exit").Order].Add(0)
	kill[blockByName(p, "body").Order].Add(0)
	gen[blockByName(p, "body").Order].Add(1)

	in, out := SolveBackwardUnion(p.Blocks, n,
		func(b *ir.Block) *bitset.Set { return gen[b.Order] },
		func(b *ir.Block) *bitset.Set { return kill[b.Order] })

	head := blockByName(p, "head")
	// head's out = in(body) ∪ in(exit). in(exit) = {0}; in(body) = {1}
	// (bit 0 killed there, bit 1 generated).
	if !out[head.Order].Contains(0) || !out[head.Order].Contains(1) {
		t.Fatalf("out(head) = %v, want {0 1}", out[head.Order])
	}
	// in(body) must not contain bit 0 (killed locally, regenerated
	// nowhere upstream of its use).
	if in[blockByName(p, "body").Order].Contains(0) {
		t.Fatal("kill not applied")
	}
	// Entry's in propagates everything live at head.
	if !in[p.Entry().Order].Contains(0) || !in[p.Entry().Order].Contains(1) {
		t.Fatalf("in(entry) = %v", in[p.Entry().Order])
	}
}

func TestUninitializedUseIsUpwardExposed(t *testing.T) {
	b := ir.NewBuilder(target.Tiny(6, 3), 8)
	pb := b.NewProc("main")
	x := pb.IntTemp("x") // never defined
	y := pb.IntTemp("y")
	pb.Op2(ir.Add, y, ir.TempOp(x), ir.ImmOp(1))
	pb.Ret(y)
	pb.P.Renumber()
	lv := Compute(pb.P)
	if lv.GlobalIndex(x) < 0 {
		t.Fatal("use-before-def temp must be in the global universe")
	}
	if !lv.LiveIn[pb.P.Entry().Order].Contains(lv.GlobalIndex(x)) {
		t.Fatal("uninitialized use must be live into entry")
	}
}

// sparseLiveness is a deliberately naive reference implementation: full
// per-block map-based liveness over every temporary, no global-universe
// restriction, no bit vectors — the "old sparse" formulation the dense
// implementation replaced. Equivalence on arbitrary programs is the
// correctness contract of the dense path (the §3 exclusion of
// block-local temporaries must not change any cross-edge fact).
func sparseLiveness(p *ir.Proc) (in, out []map[ir.Temp]bool) {
	nb := len(p.Blocks)
	in = make([]map[ir.Temp]bool, nb)
	out = make([]map[ir.Temp]bool, nb)
	gen := make([]map[ir.Temp]bool, nb)
	kill := make([]map[ir.Temp]bool, nb)
	var ubuf, dbuf []ir.Temp
	for i, b := range p.Blocks {
		in[i] = map[ir.Temp]bool{}
		out[i] = map[ir.Temp]bool{}
		g, k := map[ir.Temp]bool{}, map[ir.Temp]bool{}
		for j := range b.Instrs {
			instr := &b.Instrs[j]
			for _, t := range instr.UseTemps(ubuf[:0]) {
				if !k[t] {
					g[t] = true
				}
			}
			for _, t := range instr.DefTemps(dbuf[:0]) {
				k[t] = true
			}
		}
		gen[i], kill[i] = g, k
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			b := p.Blocks[i]
			for _, s := range b.Succs {
				for t := range in[s.Order] {
					if !out[i][t] {
						out[i][t] = true
						changed = true
					}
				}
			}
			for t := range out[i] {
				if !kill[i][t] && !in[i][t] {
					in[i][t] = true
					changed = true
				}
			}
			for t := range gen[i] {
				if !in[i][t] {
					in[i][t] = true
					changed = true
				}
			}
		}
	}
	return in, out
}

func sortedTemps(m map[ir.Temp]bool) []ir.Temp {
	ts := make([]ir.Temp, 0, len(m))
	for t := range m {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

func tempsEqual(a, b []ir.Temp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDenseMatchesSparseOnRandomCorpus checks, over the random-program
// corpus, that the dense bitset implementation — including one shared
// Scratch reused across every procedure, the engine's pooling pattern —
// produces exactly the per-block live-in/live-out temp sets of the
// sparse reference.
func TestDenseMatchesSparseOnRandomCorpus(t *testing.T) {
	mach := target.Tiny(6, 4)
	var shared Scratch
	var buf []ir.Temp
	for seed := int64(0); seed < 8; seed++ {
		cfg := progs.DefaultGen(seed)
		if seed%2 == 1 {
			cfg.MaxDepth = 4
			cfg.Stmts = 90
		}
		prog := progs.Random(mach, cfg)
		for _, p := range prog.Procs {
			p := p.Clone()
			p.Renumber()
			sIn, sOut := sparseLiveness(p)
			sortTemps := func(ts []ir.Temp) []ir.Temp {
				sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
				return ts
			}
			for pass, lv := range []*Liveness{Compute(p), shared.Compute(p)} {
				name := fmt.Sprintf("seed %d proc %s pass %d", seed, p.Name, pass)
				for _, b := range p.Blocks {
					if got, want := sortTemps(lv.LiveInTemps(b, buf[:0])), sortedTemps(sIn[b.Order]); !tempsEqual(got, want) {
						t.Fatalf("%s block %s: live-in dense %v sparse %v", name, b.Name, got, want)
					}
					if got, want := sortTemps(lv.LiveOutTemps(b, buf[:0])), sortedTemps(sOut[b.Order]); !tempsEqual(got, want) {
						t.Fatalf("%s block %s: live-out dense %v sparse %v", name, b.Name, got, want)
					}
				}
			}
		}
	}
}

// TestSolverVisitsPerBlock guards the solver's visit order. Solve calls
// gen once per block to seed In and once more on every visit, so the
// gen calls of a liveness solve, less one per block, count the visits.
// Taking blocks in postorder solves the paper's modules and the suite in
// under two visits per block; taking them in layout order, against the
// direction of a backward problem, took 80.2 on twldrv.f.
func TestSolverVisitsPerBlock(t *testing.T) {
	mach := target.Alpha()
	type named struct {
		name string
		prog *ir.Program
	}
	var corpus []named
	for _, mod := range progs.Table3Modules(mach) {
		corpus = append(corpus, named{mod.Name, mod.Prog})
	}
	for _, b := range progs.Suite() {
		corpus = append(corpus, named{b.Name, b.Build(mach, 1)})
	}
	var sc Scratch
	for _, c := range corpus {
		name, blocks, calls := c.name, 0, 0
		for _, p := range c.prog.Procs {
			p := p.Clone()
			p.Renumber()
			lv := sc.Compute(p)
			sc.solver.Solve(p.Blocks, lv.NumGlobals(),
				func(b *ir.Block) *bitset.Set { calls++; return sc.gen[b.Order] },
				func(b *ir.Block) *bitset.Set { return sc.kill[b.Order] })
			blocks += len(p.Blocks)
			calls -= len(p.Blocks)
		}
		perBlock := float64(calls) / float64(blocks)
		t.Logf("%s: %d blocks, %.2f visits per block", name, blocks, perBlock)
		if perBlock > 2 {
			t.Errorf("%s: the solver visits each block %.2f times, want at most 2", name, perBlock)
		}
	}
}
