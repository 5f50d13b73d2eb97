package oracle

import (
	"bytes"
	"testing"

	"repro/internal/alloc"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/progs"
	"repro/internal/target"
	"repro/internal/vm"
)

// bruteItem mirrors the planner's item construction, re-derived
// independently so the brute force does not inherit a construction bug.
type bruteItem struct {
	temp   ir.Temp
	class  target.Class
	weight int64
	segs   []lifetime.Segment
	cands  []target.Reg
}

// bruteForce finds the true minimum spill cost by enumerating every
// whole-lifetime assignment (each temporary: one of its legal
// registers, or memory), with only feasibility filtering. Returns ok =
// false when the space is too large to enumerate.
func bruteForce(p *ir.Proc, mach *target.Machine) (int64, int, bool) {
	p.Renumber()
	cfg.ComputeLoopDepths(p)
	lv := dataflow.Compute(p)
	lt := lifetime.Compute(p, lv)
	rb := lifetime.ComputeRegBusy(p, mach)
	w := spillWeights(p, StaticFreq)

	scratch := alloc.PickScratch(mach)
	reserved := map[target.Reg]bool{
		scratch.Int[0]: true, scratch.Int[1]: true,
		scratch.Float[0]: true, scratch.Float[1]: true,
	}

	var items []bruteItem
	for _, iv := range lt.Intervals {
		if iv.Empty() {
			continue
		}
		it := bruteItem{
			temp:  iv.Temp,
			class: p.TempClass(iv.Temp),
			segs:  append([]lifetime.Segment(nil), iv.Segments...),
		}
		it.weight = w[iv.Temp]
		for _, r := range mach.AllocOrder(it.class) {
			if reserved[r] {
				continue
			}
			ok := true
			for _, s := range it.segs {
				if !rb.FreeThrough(r, s.Start, s.End) {
					ok = false
					break
				}
			}
			if ok {
				it.cands = append(it.cands, r)
			}
		}
		items = append(items, it)
	}
	if len(items) > 14 {
		return 0, len(items), false
	}

	best := int64(1) << 62
	chosen := make([]target.Reg, len(items))
	var nodes int64
	var rec func(i int, cost int64)
	rec = func(i int, cost int64) {
		nodes++
		if cost >= best {
			return
		}
		if i == len(items) {
			best = cost
			return
		}
		it := &items[i]
	next:
		for _, r := range it.cands {
			// Feasible iff no earlier same-class overlapping item
			// holds r.
			for j := 0; j < i; j++ {
				if chosen[j] == r && items[j].class == it.class && overlap(items[j].segs, it.segs) {
					continue next
				}
			}
			chosen[i] = r
			rec(i+1, cost)
		}
		chosen[i] = target.NoReg
		rec(i+1, cost+it.weight)
	}
	rec(0, 0)
	if nodes > 50_000_000 {
		return 0, len(items), false
	}
	return best, len(items), true
}

// TestBruteForceAgreement is the oracle's ground-truth check: on a
// fixture set of tiny random programs the branch-and-bound result must
// equal an exhaustive enumeration's minimum, including all the
// planner's shortcuts (zero-weight spilling, kernelization, symmetry
// breaking, memoization).
func TestBruteForceAgreement(t *testing.T) {
	machines := []*target.Machine{target.Tiny(5, 3), target.Tiny(4, 2), target.Tiny(6, 4)}
	checked, nontrivial := 0, 0
	for _, mach := range machines {
		for seed := int64(1); seed <= 12; seed++ {
			gen := progs.DefaultGen(seed)
			gen.Stmts = 10
			prog := progs.Random(mach, gen)
			for _, p := range prog.Procs {
				want, n, ok := bruteForce(p.Clone(), mach)
				if !ok {
					continue
				}
				plan := planProc(p.Clone(), mach, StaticFreq, DefaultLimits())
				if !plan.Proven {
					t.Fatalf("%s/%s seed %d: tiny fixture not proven (items %d kernel %d nodes %d)",
						mach.Name, p.Name, seed, plan.Items, plan.Kernel, plan.Nodes)
				}
				if plan.Cost != want {
					t.Fatalf("%s/%s seed %d: oracle cost %d, brute force %d (%d items)",
						mach.Name, p.Name, seed, plan.Cost, want, n)
				}
				checked++
				if want > 0 {
					nontrivial++
				}
			}
		}
	}
	if checked < 20 || nontrivial < 5 {
		t.Fatalf("fixture set too weak: %d fixtures checked, %d with nonzero optimum", checked, nontrivial)
	}
}

// TestPredictedCostMatchesVM checks cost-model exactness: the
// profile-weighted optimum predicted by the planner equals the VM's
// measured SpillOverhead of the oracle-allocated program, instruction
// for instruction, through the full checked pipeline (DCE, allocate,
// verify, peephole, validate).
func TestPredictedCostMatchesVM(t *testing.T) {
	input := []byte("oracle exactness input 0123456789")
	machines := []*target.Machine{target.Tiny(6, 4), target.Tiny(5, 3)}
	proven := 0
	for _, mach := range machines {
		for seed := int64(40); seed < 52; seed++ {
			gen := progs.DefaultGen(seed)
			gen.Stmts = 30
			prog := progs.Random(mach, gen)

			pf, ref, err := CollectProfile(prog, mach, input, 20_000_000)
			if err != nil {
				t.Fatalf("%s seed %d: profile: %v", mach.Name, seed, err)
			}
			optimum, ok := OptimalCost(prog, mach, pf, DefaultLimits())
			if !ok {
				continue
			}
			proven++

			a := New(mach)
			a.SetProfile(pf)
			allocd, _, err := alloc.Pipeline{Mach: mach, Verify: true}.Program(a, prog)
			if err != nil {
				t.Fatalf("%s seed %d: pipeline: %v", mach.Name, seed, err)
			}
			got, err := vm.Run(allocd, vm.Config{Mach: mach, Input: input, Paranoid: true})
			if err != nil {
				t.Fatalf("%s seed %d: allocated run: %v", mach.Name, seed, err)
			}
			if !bytes.Equal(ref.Output, got.Output) || ref.RetValue != got.RetValue {
				t.Fatalf("%s seed %d: oracle allocation changed program behavior", mach.Name, seed)
			}
			if spill := got.Counters.SpillOverhead(); spill != optimum {
				t.Fatalf("%s seed %d: predicted optimum %d, VM measured %d",
					mach.Name, seed, optimum, spill)
			}
		}
	}
	if proven < 10 {
		t.Fatalf("only %d programs were proven optimal; exactness barely exercised", proven)
	}
}

// TestRegistryOracleConforms drives the oracle through its registry
// name on programs both inside and far beyond the search budget: the
// size guard must degrade to the greedy incumbent, never to an error,
// and the result must still compute the original program.
func TestRegistryOracleConforms(t *testing.T) {
	f, ok := alloc.Lookup("oracle")
	if !ok {
		t.Fatal("oracle is not registered")
	}
	input := []byte("registry oracle input")
	for _, mach := range []*target.Machine{target.Tiny(6, 4), target.Alpha()} {
		for _, stmts := range []int{20, 400} { // 400 blows MaxInstrs per proc
			gen := progs.DefaultGen(7)
			gen.Stmts = stmts
			prog := progs.Random(mach, gen)
			want, err := vm.Run(prog, vm.Config{Mach: mach, Input: input})
			if err != nil {
				t.Fatal(err)
			}
			allocd, _, err := alloc.Pipeline{Mach: mach, Verify: true}.Program(f(mach), prog)
			if err != nil {
				t.Fatalf("%s stmts %d: %v", mach.Name, stmts, err)
			}
			got, err := vm.Run(allocd, vm.Config{Mach: mach, Input: input, Paranoid: true})
			if err != nil {
				t.Fatalf("%s stmts %d: %v", mach.Name, stmts, err)
			}
			if !bytes.Equal(want.Output, got.Output) || want.RetValue != got.RetValue {
				t.Fatalf("%s stmts %d: mismatch", mach.Name, stmts)
			}
		}
	}
}

// TestWideMachineKernelizes: on a register-rich machine nothing is
// contended, so kernelization must dissolve the whole problem — proven
// optimal at zero cost without any search.
func TestWideMachineKernelizes(t *testing.T) {
	mach, err := target.Preset("wide-64")
	if err != nil {
		t.Fatal(err)
	}
	gen := progs.DefaultGen(3)
	gen.Stmts = 40
	prog := progs.Random(mach, gen)
	for _, p := range prog.Procs {
		plan := planProc(p.Clone(), mach, StaticFreq, DefaultLimits())
		if plan.Kernel != 0 || !plan.Proven || plan.Cost != 0 || plan.Nodes != 0 {
			t.Fatalf("%s: wide machine should kernelize fully: kernel %d cost %d proven %v nodes %d",
				p.Name, plan.Kernel, plan.Cost, plan.Proven, plan.Nodes)
		}
	}
}

// TestProfileDirectsSpills: a hot loop recorded in the profile must be
// kept in registers at the expense of cold code, and vice versa when
// the profile says the opposite — the planner follows measured
// frequency, not syntax.
func TestProfileDirectsSpills(t *testing.T) {
	mach := target.Tiny(6, 4)
	input := []byte{}
	gen := progs.DefaultGen(11)
	gen.Stmts = 25
	prog := progs.Random(mach, gen)

	pf, _, err := CollectProfile(prog, mach, input, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	dynCost, dynOK := OptimalCost(prog, mach, pf, DefaultLimits())
	if !dynOK {
		t.Skip("fixture not proven under default limits")
	}
	// The profile-weighted optimum can never exceed the measured cost
	// of the static-weight plan (both are feasible points of the same
	// profile-weighted objective).
	var staticCost int64
	for _, p := range prog.Procs {
		in := p.Clone()
		plan := planProc(in, mach, StaticFreq, DefaultLimits())
		// Re-cost the static assignment under dynamic weights.
		in2 := p.Clone()
		in2.Renumber()
		w := spillWeights(in2, pf.FreqFunc(p.Name))
		for t2, r := range plan.Assign {
			if r == target.NoReg && t2 < len(w) {
				staticCost += w[t2]
			}
		}
	}
	if dynCost > staticCost {
		t.Fatalf("profile-weighted optimum %d exceeds static plan's dynamic cost %d", dynCost, staticCost)
	}
}

func TestStaticFreq(t *testing.T) {
	for _, tc := range []struct {
		depth int
		want  int64
	}{{0, 1}, {1, 10}, {3, 1000}, {9, 1_000_000_000}, {15, 1_000_000_000}} {
		if got := StaticFreq(&ir.Block{Depth: tc.depth}); got != tc.want {
			t.Fatalf("StaticFreq(depth=%d) = %d, want %d", tc.depth, got, tc.want)
		}
	}
}
