// Package oracle implements an exhaustive register allocator: a
// branch-and-bound search over whole-lifetime assignments that provably
// minimizes the dynamic spill cost the VM counts
// (vm.Counters.SpillOverhead()). It exists to measure the other
// allocators, not to compete with them on speed — the conformance
// harness compares every fast allocator's spill traffic against the
// oracle's optimum, turning the paper's quality-vs-speed tradeoff into
// a measured frontier (ROADMAP "quality frontier"; see the
// combinatorial-allocation line in PAPERS.md, and Bouchez/Darte/
// Rastello for why the spill-everywhere problem needs a search).
//
// The model is the paper's two-pass spill-everywhere model (§3.1): each
// temporary lives wholly in one register or wholly in memory, memory
// references run through the reserved scratch registers, and two
// temporaries may share a register when their live segments never
// overlap (lifetime holes, §2.5). Within that model the cost of an
// assignment is separable: a memory-resident temporary costs one
// scan-load per use occurrence and one scan-store per def occurrence,
// each weighted by how often its block executes — exactly the spill
// code alloc.RewriteAssigned emits and the VM tags. The search
// therefore minimizes
//
//	Σ_{t in memory} weight(t),  weight(t) = Σ_refs freq(block(ref))
//
// with freq taken from a recorded execution profile (Profile) or, when
// none is supplied, from static 10^loop-depth weights.
//
// Optimality caveats, stated honestly: the optimum is relative to this
// model — whole lifetimes, the standard two reserved scratch registers
// per file, and segment-overlap interference. Allocators that split
// lifetimes (second-chance binpacking) can occasionally beat it, which
// the quality envelopes absorb with factors ≥ 1.
package oracle

import (
	"math/bits"
	"sort"

	"repro/internal/alloc"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/target"
)

// Limits bounds the search so the oracle stays usable behind the
// allocator registry: procedures past the statement budget skip the
// search entirely, and within it the kernel size and node budget cap
// the exponential worst case.
type Limits struct {
	// MaxInstrs is the per-procedure statement budget: larger
	// procedures are never searched (the registry allocator falls back
	// to the greedy incumbent; quality measurement marks them
	// ineligible unless the kernel is empty).
	MaxInstrs int
	// MaxKernel bounds the number of temporaries that survive
	// kernelization and enter branch-and-bound.
	MaxKernel int
	// MaxNodes bounds the search tree; an exhausted budget keeps the
	// best incumbent but forfeits the optimality proof.
	MaxNodes int64
}

// DefaultLimits are tuned so the full conformance grid stays fast while
// nearly every generated program is proven optimal.
func DefaultLimits() Limits { return Limits{MaxInstrs: 160, MaxKernel: 24, MaxNodes: 200_000} }

// Plan is the outcome of planning one procedure.
type Plan struct {
	// Assign maps each temporary to its register, target.NoReg = memory.
	Assign []target.Reg
	// Cost is the predicted dynamic spill overhead of the assignment
	// under the weights the plan was computed with: for a
	// profile-weighted plan it equals the VM's SpillOverhead() of the
	// rewritten procedure exactly.
	Cost int64
	// Proven reports that the search exhausted the space within Limits,
	// i.e. Cost is the model optimum, not just the best incumbent.
	Proven bool
	// Items counts the undecided temporaries (non-empty lifetime,
	// positive weight, at least one legal register); Kernel counts how
	// many survived kernelization into branch-and-bound.
	Items, Kernel int
	// Nodes is the number of search-tree nodes expanded.
	Nodes int64
}

// StaticFreq is the profile-free block weight: 10^loop-depth, the
// classic static spill heuristic (capped to keep products in int64).
func StaticFreq(b *ir.Block) int64 {
	d := b.Depth
	if d > 9 {
		d = 9
	}
	f := int64(1)
	for i := 0; i < d; i++ {
		f *= 10
	}
	return f
}

// spillWeights computes weight(t) = Σ over every use and def occurrence
// of t of freq(block). Occurrences, not instructions: RewriteAssigned
// emits one scan-load per use operand and one scan-store per def
// operand, so a temporary appearing twice in one instruction pays
// twice.
func spillWeights(p *ir.Proc, freq func(*ir.Block) int64) []int64 {
	w := make([]int64, p.NumTemps())
	for _, b := range p.Blocks {
		f := freq(b)
		if f == 0 {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, o := range in.Uses {
				if o.Kind == ir.KindTemp {
					w[o.Temp] += f
				}
			}
			for _, o := range in.Defs {
				if o.Kind == ir.KindTemp {
					w[o.Temp] += f
				}
			}
		}
	}
	return w
}

// item is one undecided temporary in the search.
type item struct {
	temp   ir.Temp
	class  target.Class
	weight int64
	segs   []lifetime.Segment
	cands  []target.Reg
	nbhd   []int // indices of same-class items with overlapping segments
}

// overlap reports whether two sorted segment lists share a position —
// the interference criterion: the temporaries are live simultaneously.
func overlap(a, b []lifetime.Segment) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].End < b[j].Start:
			i++
		case b[j].End < a[i].Start:
			j++
		default:
			return true
		}
	}
	return false
}

// planProc computes the minimum-spill-cost whole-lifetime assignment
// for p under the given block-frequency function. p is mutated
// (Renumber, loop depths); callers pass owned clones. lv is p's
// liveness; loops is the caller's loop-analysis scratch.
func planProc(p *ir.Proc, lv *dataflow.Liveness, mach *target.Machine, freq func(*ir.Block) int64, lim Limits, loops *cfg.Scratch) *Plan {
	p.Renumber()
	loops.ComputeLoopDepths(p)
	lt := lifetime.Compute(p, lv)
	rb := lifetime.ComputeRegBusy(p, mach)
	w := spillWeights(p, freq)

	scratch := alloc.PickScratch(mach)
	reserved := map[target.Reg]bool{
		scratch.Int[0]: true, scratch.Int[1]: true,
		scratch.Float[0]: true, scratch.Float[1]: true,
	}

	plan := &Plan{Assign: make([]target.Reg, p.NumTemps())}
	for i := range plan.Assign {
		plan.Assign[i] = target.NoReg
	}

	// Partition the temporaries: forced to memory (no legal register),
	// free to spill (zero weight — memory costs nothing and only
	// relaxes constraints, so an optimal all-memory choice exists), and
	// the undecided rest.
	var live []*item
	for _, iv := range lt.Intervals {
		if iv.Empty() {
			continue
		}
		t := iv.Temp
		c := p.TempClass(t)
		segs := append([]lifetime.Segment(nil), iv.Segments...)
		var cands []target.Reg
		for _, r := range mach.AllocOrder(c) {
			if reserved[r] {
				continue
			}
			ok := true
			for _, s := range segs {
				if !rb.FreeThrough(r, s.Start, s.End) {
					ok = false
					break
				}
			}
			if ok {
				cands = append(cands, r)
			}
		}
		switch {
		case len(cands) == 0:
			plan.Cost += w[t]
		case w[t] == 0:
			// stays in memory at zero cost
		default:
			live = append(live, &item{temp: t, class: c, weight: w[t], segs: segs, cands: cands})
		}
	}
	plan.Items = len(live)

	// Interference graph over the undecided items. Classes never share
	// registers, so only same-class overlaps conflict.
	for i := range live {
		for j := i + 1; j < len(live); j++ {
			if live[i].class == live[j].class && overlap(live[i].segs, live[j].segs) {
				live[i].nbhd = append(live[i].nbhd, j)
				live[j].nbhd = append(live[j].nbhd, i)
			}
		}
	}

	// Kernelization: an item with more candidate registers than
	// remaining conflicting neighbors is always colorable — remove it
	// and color it greedily after the search, in reverse removal order.
	// This leaves only the genuinely contended core for branch-and-
	// bound (on register-rich machines the kernel is usually empty).
	removed := make([]bool, len(live))
	degree := make([]int, len(live))
	for i := range live {
		degree[i] = len(live[i].nbhd)
	}
	var stack []int
	for changed := true; changed; {
		changed = false
		for i := range live {
			if !removed[i] && len(live[i].cands) > degree[i] {
				removed[i] = true
				stack = append(stack, i)
				for _, j := range live[i].nbhd {
					if !removed[j] {
						degree[j]--
					}
				}
				changed = true
			}
		}
	}
	var kernel []int
	for i := range live {
		if !removed[i] {
			kernel = append(kernel, i)
		}
	}
	// Highest weight first: the search decides the expensive
	// temporaries early, so pruning bites soonest.
	sort.SliceStable(kernel, func(a, b int) bool {
		wa, wb := live[kernel[a]].weight, live[kernel[b]].weight
		if wa != wb {
			return wa > wb
		}
		return live[kernel[a]].temp < live[kernel[b]].temp
	})
	plan.Kernel = len(kernel)

	// itemReg is the per-item register decision (NoReg = memory).
	itemReg := make([]target.Reg, len(live))
	for i := range itemReg {
		itemReg[i] = target.NoReg
	}

	kernelCost := searchKernel(live, kernel, itemReg, mach, p, lim, plan)
	plan.Cost += kernelCost

	// Reinsert the kernelized items in reverse removal order; the
	// degree invariant guarantees a free candidate among the registers
	// taken by still-present neighbors.
	for s := len(stack) - 1; s >= 0; s-- {
		i := stack[s]
		used := make(map[target.Reg]bool, len(live[i].nbhd))
		for _, j := range live[i].nbhd {
			if itemReg[j] != target.NoReg {
				used[itemReg[j]] = true
			}
		}
		for _, r := range live[i].cands {
			if !used[r] {
				itemReg[i] = r
				break
			}
		}
		if itemReg[i] == target.NoReg {
			// Unreachable by construction; degrade safely.
			plan.Cost += live[i].weight
			plan.Proven = false
		}
	}

	for i, it := range live {
		plan.Assign[it.temp] = itemReg[i]
	}
	return plan
}

// searchKernel assigns the kernel items, minimizing the spill weight,
// writing the decisions into itemReg and setting plan.Proven/Nodes.
// Returns the kernel's contribution to the cost.
func searchKernel(live []*item, kernel []int, itemReg []target.Reg, mach *target.Machine, p *ir.Proc, lim Limits, plan *Plan) int64 {
	n := len(kernel)
	if n == 0 {
		plan.Proven = true
		return 0
	}

	// Greedy first-fit incumbent in kernel (descending weight) order —
	// a binpack-style packing of intervals into register bins that the
	// search then tries to beat.
	kpos := make(map[int]int, n) // live index -> kernel position
	for ki, i := range kernel {
		kpos[i] = ki
	}
	greedy := func() int64 {
		var cost int64
		for _, i := range kernel {
			used := make(map[target.Reg]bool, len(live[i].nbhd))
			for _, j := range live[i].nbhd {
				if _, inKernel := kpos[j]; inKernel && itemReg[j] != target.NoReg {
					used[itemReg[j]] = true
				}
			}
			itemReg[i] = target.NoReg
			for _, r := range live[i].cands {
				if !used[r] {
					itemReg[i] = r
					break
				}
			}
			if itemReg[i] == target.NoReg {
				cost += live[i].weight
			}
		}
		return cost
	}
	best := greedy()

	eligible := p.NumInstrs() <= lim.MaxInstrs && n <= lim.MaxKernel
	if !eligible {
		plan.Proven = false
		return best
	}

	// Dense register bits: the union of kernel candidates, numbered in
	// allocation-preference order so ascending-bit iteration preserves
	// each machine's AllocOrder.
	bitOf := make(map[target.Reg]int)
	var regOfBit []target.Reg
	for c := target.Class(0); c < target.NumClasses; c++ {
		for _, r := range mach.AllocOrder(c) {
			for _, i := range kernel {
				if live[i].class != c {
					continue
				}
				found := false
				for _, cr := range live[i].cands {
					if cr == r {
						found = true
						break
					}
				}
				if found {
					if _, ok := bitOf[r]; !ok {
						bitOf[r] = len(regOfBit)
						regOfBit = append(regOfBit, r)
					}
					break
				}
			}
		}
	}
	if len(regOfBit) > 64 {
		plan.Proven = false
		return best
	}

	cand := make([]uint64, n)
	wgt := make([]int64, n)
	nbhd := make([][]int, n) // kernel-local forward neighbors
	for ki, i := range kernel {
		for _, r := range live[i].cands {
			cand[ki] |= 1 << bitOf[r]
		}
		wgt[ki] = live[i].weight
		for _, j := range live[i].nbhd {
			if kj, ok := kpos[j]; ok && kj > ki {
				nbhd[ki] = append(nbhd[ki], kj)
			}
		}
	}

	// Register symmetry: two registers whose candidate columns over the
	// kernel are identical are interchangeable while both are unused —
	// trying one of each column class suffices.
	col := make([]int, len(regOfBit))
	colSig := make(map[uint64]int)
	for b := range regOfBit {
		var sig uint64
		for ki := range cand {
			if cand[ki]&(1<<b) != 0 {
				sig |= 1 << ki
			}
		}
		id, ok := colSig[sig]
		if !ok {
			id = len(colSig)
			colSig[sig] = id
		}
		col[b] = id
	}

	banned := make([]uint64, n) // registers taken by assigned neighbors
	as := make([]int8, n)       // current: bit index, -1 memory, -2 undecided
	bestAs := make([]int8, n)   // best complete assignment
	useCount := make([]int, len(regOfBit))
	for ki := range as {
		as[ki] = -2
	}
	// Seed bestAs from the greedy incumbent.
	for ki, i := range kernel {
		if itemReg[i] == target.NoReg {
			bestAs[ki] = -1
		} else {
			bestAs[ki] = int8(bitOf[itemReg[i]])
		}
	}

	memo := make(map[string]int64)
	keyBuf := make([]byte, 0, 8*(n+1))
	stateKey := func(idx int) string {
		keyBuf = keyBuf[:0]
		keyBuf = append(keyBuf, byte(idx))
		for i := idx; i < n; i++ {
			avail := cand[i] &^ banned[i]
			for s := 0; s < 64; s += 8 {
				keyBuf = append(keyBuf, byte(avail>>s))
			}
		}
		return string(keyBuf)
	}

	var undoBuf []int
	aborted := false
	var nodes int64
	var rec func(idx int, cost int64)
	rec = func(idx int, cost int64) {
		if aborted {
			return
		}
		nodes++
		if nodes > lim.MaxNodes {
			aborted = true
			return
		}
		// Forced-memory lower bound over the remaining items.
		lb := int64(0)
		for i := idx; i < n; i++ {
			if cand[i]&^banned[i] == 0 {
				lb += wgt[i]
			}
		}
		if cost+lb >= best {
			return
		}
		if idx == n {
			best = cost
			copy(bestAs, as)
			return
		}
		key := stateKey(idx)
		if prev, ok := memo[key]; ok && prev <= cost {
			return
		}
		memo[key] = cost

		avail := cand[idx] &^ banned[idx]
		var triedCol uint64
		for m := avail; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if useCount[b] == 0 {
				if triedCol&(1<<col[b]) != 0 {
					continue // symmetric to an unused register already tried
				}
				triedCol |= 1 << col[b]
			}
			as[idx] = int8(b)
			useCount[b]++
			mark := len(undoBuf)
			for _, j := range nbhd[idx] {
				if banned[j]&(1<<b) == 0 {
					banned[j] |= 1 << b
					undoBuf = append(undoBuf, j)
				}
			}
			rec(idx+1, cost)
			for _, j := range undoBuf[mark:] {
				banned[j] &^= 1 << b
			}
			undoBuf = undoBuf[:mark]
			useCount[b]--
			as[idx] = -2
		}
		// Memory branch last: registers are free, memory costs weight.
		as[idx] = -1
		rec(idx+1, cost+wgt[idx])
		as[idx] = -2
	}
	rec(0, 0)
	plan.Nodes = nodes
	plan.Proven = !aborted

	for ki, i := range kernel {
		if bestAs[ki] < 0 {
			itemReg[i] = target.NoReg
		} else {
			itemReg[i] = regOfBit[bestAs[ki]]
		}
	}
	return best
}
