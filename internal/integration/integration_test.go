// End-to-end allocator runs over the benchmark suite and random
// programs; see doc.go for the package overview.

package integration

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/linearscan"
	"repro/internal/opt"
	"repro/internal/progs"
	"repro/internal/target"
	"repro/internal/verify"
	"repro/internal/vm"
)

// allocators returns the contenders for a machine.
func allocators(mach *target.Machine) map[string]alloc.Allocator {
	twoPass := core.DefaultOptions()
	twoPass.SecondChance = false
	strict := core.DefaultOptions()
	strict.StrictLinear = true
	return map[string]alloc.Allocator{
		"binpack":        core.NewDefault(mach),
		"binpack-strict": core.New(mach, strict),
		"twopass":        core.New(mach, twoPass),
		"coloring":       coloring.New(mach),
		"linearscan":     linearscan.New(mach),
	}
}

// allocateProgram runs one allocator over every procedure of prog,
// verifying each result, and returns the allocated program. Each result
// is copied out before the next allocation, as alloc.Pipeline does: the
// allocator's scratch holds it only until then.
func allocateProgram(t *testing.T, mach *target.Machine, a alloc.Allocator, prog *ir.Program) *ir.Program {
	t.Helper()
	out := ir.NewProgram(prog.MemWords)
	out.Main = prog.Main
	for addr, v := range prog.MemInit {
		out.SetMem(addr, v)
	}
	for _, p := range prog.Procs {
		c := p.Clone()
		c.Renumber()
		res, err := a.Allocate(c, dataflow.Compute(c), nil)
		if err != nil {
			t.Fatalf("%s: allocate %s: %v", a.Name(), p.Name, err)
		}
		if err := verify.Verify(res.Proc, mach); err != nil {
			t.Fatalf("%s: %v\n%s", a.Name(), err, dump(mach, res.Proc))
		}
		opt.Peephole(res.Proc)
		if err := ir.ValidateAllocated(res.Proc, mach); err != nil {
			t.Fatalf("%s: invalid output for %s: %v", a.Name(), p.Name, err)
		}
		out.AddProc(res.Proc.Clone())
	}
	return out
}

func dump(mach *target.Machine, p *ir.Proc) string {
	var sb bytes.Buffer
	pr := &ir.Printer{Mach: mach, Tags: true, Positions: true}
	pr.WriteProc(&sb, p)
	return sb.String()
}

// checkEquivalent runs both programs and compares outputs.
func checkEquivalent(t *testing.T, mach *target.Machine, name string, orig, allocd *ir.Program, input []byte) {
	t.Helper()
	want, err := vm.Run(orig, vm.Config{Mach: mach, Input: input})
	if err != nil {
		t.Fatalf("%s: reference run: %v", name, err)
	}
	got, err := vm.Run(allocd, vm.Config{Mach: mach, Input: input, Paranoid: true})
	if err != nil {
		t.Fatalf("%s: allocated run: %v\n%s", name, err, dump(mach, allocd.Proc(allocd.Main)))
	}
	if !bytes.Equal(want.Output, got.Output) || want.RetValue != got.RetValue {
		t.Fatalf("%s: output mismatch\nwant %q ret=%d\ngot  %q ret=%d\n%s",
			name, want.Output, want.RetValue, got.Output, got.RetValue,
			dump(mach, allocd.Proc(allocd.Main)))
	}
}

// TestSuiteAllAllocators runs every paper benchmark at test scale under
// every allocator on the Alpha-like machine and a small machine.
func TestSuiteAllAllocators(t *testing.T) {
	machines := map[string]*target.Machine{
		"alpha":   target.Alpha(),
		"tiny8_6": target.Tiny(8, 6),
	}
	for _, b := range progs.Suite() {
		for mname, mach := range machines {
			prog := b.Build(mach, 2)
			if err := ir.ValidateProgram(prog, mach); err != nil {
				t.Fatalf("%s: invalid input program: %v", b.Name, err)
			}
			var input []byte
			if b.Input != nil {
				input = b.Input(2)
			}
			for aname, a := range allocators(mach) {
				t.Run(fmt.Sprintf("%s/%s/%s", b.Name, mname, aname), func(t *testing.T) {
					allocd := allocateProgram(t, mach, a, prog)
					checkEquivalent(t, mach, b.Name, prog, allocd, input)
				})
			}
		}
	}
}

// TestRandomPrograms is the main property test: seeded random programs
// must behave identically before and after allocation, for every
// allocator, on machines from comfortable to starved.
func TestRandomPrograms(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	machines := []*target.Machine{
		target.Alpha(),
		target.Tiny(10, 6),
		target.Tiny(6, 4),
		target.Tiny(5, 3),
	}
	for seed := 0; seed < seeds; seed++ {
		cfg := progs.DefaultGen(int64(seed))
		// Vary the shape with the seed.
		cfg.IntTemps = 6 + seed%10
		cfg.FloatTemps = 3 + seed%5
		cfg.Stmts = 30 + (seed*13)%80
		cfg.Helper = seed%3 != 0
		cfg.Calls = seed%5 != 4
		mach := machines[seed%len(machines)]
		prog := progs.Random(mach, cfg)
		if err := ir.ValidateProgram(prog, mach); err != nil {
			t.Fatalf("seed %d: invalid program: %v", seed, err)
		}
		input := []byte(fmt.Sprintf("random-input-%d-abcdefghijklmnop", seed))
		for aname, a := range allocators(mach) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, aname), func(t *testing.T) {
				allocd := allocateProgram(t, mach, a, prog)
				checkEquivalent(t, mach, fmt.Sprintf("seed%d", seed), prog, allocd, input)
			})
		}
	}
}

// TestOptionMatrixRandom exercises the binpacking option space (move
// optimization, early second chance, strict linear, heuristics) against
// random programs.
func TestOptionMatrixRandom(t *testing.T) {
	mach := target.Tiny(7, 5)
	variants := map[string]core.Options{
		"paper":     core.DefaultOptions(),
		"bare":      {SecondChance: true},
		"no_move":   {SecondChance: true, EarlySecondChance: true},
		"no_early":  {SecondChance: true, MoveOpt: true},
		"strict":    {SecondChance: true, MoveOpt: true, EarlySecondChance: true, StrictLinear: true},
		"plaindist": {SecondChance: true, MoveOpt: true, EarlySecondChance: true, Heuristic: core.HeuristicPlainDistance},
	}
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 100; seed < 100+seeds; seed++ {
		cfg := progs.DefaultGen(int64(seed))
		cfg.IntTemps = 10
		cfg.FloatTemps = 5
		prog := progs.Random(mach, cfg)
		input := []byte("option-matrix-input-stream")
		for vname, o := range variants {
			t.Run(fmt.Sprintf("seed%d/%s", seed, vname), func(t *testing.T) {
				a := core.New(mach, o)
				allocd := allocateProgram(t, mach, a, prog)
				checkEquivalent(t, mach, vname, prog, allocd, input)
			})
		}
	}
}

// TestForwardStoresPreservesSemantics checks the optional post-allocation
// store-to-load forwarding pass.
func TestForwardStoresPreservesSemantics(t *testing.T) {
	mach := target.Tiny(6, 4)
	for seed := int64(0); seed < 10; seed++ {
		prog := progs.Random(mach, progs.DefaultGen(seed))
		input := []byte("forwarding-test-input")
		a := core.NewDefault(mach)
		allocd := allocateProgram(t, mach, a, prog)
		for _, p := range allocd.Procs {
			opt.ForwardStores(p, mach)
			opt.Peephole(p)
			if err := ir.ValidateAllocated(p, mach); err != nil {
				t.Fatalf("seed %d: after forwarding: %v", seed, err)
			}
		}
		checkEquivalent(t, mach, "forward", prog, allocd, input)
	}
}

// TestVerifierCatchesCorruption injects defects into a correct
// allocation and requires the verifier to reject each one.
func TestVerifierCatchesCorruption(t *testing.T) {
	mach := target.Tiny(6, 4)
	prog := progs.Random(mach, progs.DefaultGen(7))
	c := prog.Proc("main").Clone()
	c.Renumber()
	res, err := core.NewDefault(mach).Allocate(c, dataflow.Compute(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(res.Proc, mach); err != nil {
		t.Fatalf("clean allocation rejected: %v", err)
	}

	corruptions := 0
	tried := 0
	for bi, b := range res.Proc.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.OrigUses == nil {
				continue
			}
			for ui := range in.Uses {
				if in.OrigUses[ui] == ir.NoTemp || in.Uses[ui].Kind != ir.KindReg {
					continue
				}
				tried++
				if tried%7 != 0 {
					continue // sample a subset to keep the test fast
				}
				// Corrupt: redirect the use to a different register of
				// the same class.
				c := mach.RegClass(in.Uses[ui].Reg)
				var other target.Reg = target.NoReg
				for _, r := range mach.AllocOrder(c) {
					if r != in.Uses[ui].Reg {
						other = r
						break
					}
				}
				old := in.Uses[ui].Reg
				in.Uses[ui].Reg = other
				if err := verify.Verify(res.Proc, mach); err == nil {
					t.Errorf("block %d instr %d: corrupted use not detected", bi, i)
				} else {
					corruptions++
				}
				in.Uses[ui].Reg = old
			}
		}
	}
	if corruptions == 0 {
		t.Fatal("no corruptions exercised")
	}
}

// TestVerifierCatchesDroppedSpillCode deletes allocator-inserted spill
// loads one at a time. The verifier must reject the mutation — or, when
// it accepts, the mutation must be genuinely harmless (a redundant
// reload of a value that never left its register, which happens when an
// eviction was store-suppressed by consistency): the VM output must be
// unchanged. This establishes that verifier acceptance implies
// semantics preservation on this corpus.
func TestVerifierCatchesDroppedSpillCode(t *testing.T) {
	mach := target.Tiny(5, 3)
	prog := progs.Random(mach, progs.DefaultGen(11))
	a := core.NewDefault(mach)
	input := []byte("drop-spill-load-test-input")
	want, err := vm.Run(prog, vm.Config{Mach: mach, Input: input})
	if err != nil {
		t.Fatal(err)
	}

	allocd := allocateProgram(t, mach, a, prog)
	base := allocd.Proc("main")
	dropped, caught, redundant := 0, 0, 0
	for bi := range base.Blocks {
		for i := range base.Blocks[bi].Instrs {
			in := base.Blocks[bi].Instrs[i]
			if in.Tag != ir.TagScanLoad && in.Tag != ir.TagResolveLoad {
				continue
			}
			mut := base.Clone()
			blk := mut.Blocks[bi]
			blk.Instrs = append(append([]ir.Instr(nil), blk.Instrs[:i]...), blk.Instrs[i+1:]...)
			dropped++
			if err := verify.Verify(mut, mach); err != nil {
				caught++
				continue
			}
			// Verifier accepted: the drop must be harmless.
			mp := ir.NewProgram(allocd.MemWords)
			for addr, v := range allocd.MemInit {
				mp.SetMem(addr, v)
			}
			for _, q := range allocd.Procs {
				if q.Name == "main" {
					mp.AddProc(mut)
				} else {
					mp.AddProc(q)
				}
			}
			got, err := vm.Run(mp, vm.Config{Mach: mach, Input: input, Paranoid: true})
			if err != nil || !bytes.Equal(got.Output, want.Output) || got.RetValue != want.RetValue {
				t.Fatalf("block %d instr %d: verifier accepted a semantics-changing drop (err=%v)", bi, i, err)
			}
			redundant++
		}
	}
	if dropped == 0 {
		t.Skip("allocation produced no spill loads to drop")
	}
	t.Logf("dropped %d spill loads: %d caught by verifier, %d proven redundant", dropped, caught, redundant)
	if caught == 0 {
		t.Fatal("verifier caught nothing")
	}
}
