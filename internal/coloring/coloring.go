// Package coloring implements the graph-coloring register allocator the
// paper measures second-chance binpacking against: George and Appel's
// iterated register coalescing (TOPLAS 1996), in the Chaitin–Briggs
// tradition, with the two implementation choices §3 of the paper
// describes:
//
//   - the interference adjacency relation is a lower-triangular bit
//     matrix rather than a hash table, and
//   - liveness is computed once, before allocation, not once per round:
//     spill temporaries are live only within a single block, so global
//     liveness is unaffected by spill-code insertion.
//
// As in the paper, the integer and floating-point files are colored as
// two independent problems ("with coloring, the non-linear costs ... make
// it more efficient to solve the two smaller problems separately").
package coloring

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/alloc"
	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/target"
)

// Allocator is the iterated-register-coalescing allocator.
type Allocator struct {
	mach *target.Machine
	// MaxRounds bounds build/color iterations (default 32).
	MaxRounds int
	saves     alloc.CalleeSaves
	loops     cfg.Scratch
}

// New returns a coloring allocator for the machine.
func New(m *target.Machine) *Allocator { return &Allocator{mach: m, MaxRounds: 32} }

func init() {
	alloc.MustRegister("coloring", func(m *target.Machine) alloc.Allocator { return New(m) })
}

// Name identifies the allocator in reports.
func (a *Allocator) Name() string { return "graph coloring (George-Appel)" }

var _ alloc.Allocator = (*Allocator)(nil)

// Allocate colors both register files of p and rewrites it in place,
// with lv as its liveness and tm as the pipeline's phase timer (see
// alloc.Allocator). lv is the one liveness of every round.
func (a *Allocator) Allocate(p *ir.Proc, lv *dataflow.Liveness, tm *alloc.Timer) (*alloc.Result, error) {
	res := &alloc.Result{Proc: p}
	p.Renumber()
	tm.Mark(&res.Stats, alloc.PhaseOther)
	a.loops.ComputeLoopDepths(p)
	tm.Mark(&res.Stats, alloc.PhaseCFG)

	start := time.Now()
	res.Stats.Candidates = p.NumTemps()

	frame := alloc.NewFrame(p)
	usedCallee := make([]bool, a.mach.NumRegs())
	for c := target.Class(0); c < target.NumClasses; c++ {
		g := &colorer{
			mach: a.mach, class: c, proc: p, lv: lv, frame: frame,
			maxRounds: a.MaxRounds,
		}
		if err := g.run(); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name(), p.Name, err)
		}
		res.Stats.InterferenceEdges += g.totalEdges
		res.Stats.Rounds += g.rounds
		for r := range g.usedCallee {
			usedCallee[r] = true
		}
	}
	tm.Mark(&res.Stats, alloc.PhaseScan)
	res.Stats.UsedCalleeSaved = a.saves.Insert(p, a.mach, usedCallee)
	res.Stats.AllocTime = time.Since(start)
	res.Stats.SpilledTemps = frame.NumSpilled()
	p.Renumber()
	res.Stats.Inserted = alloc.CountInserted(p)
	if err := alloc.CheckNoTemps(p); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name(), err)
	}
	tm.Mark(&res.Stats, alloc.PhaseOther)
	return res, nil
}

// colorer colors one register file of one procedure.
type colorer struct {
	mach  *target.Machine
	class target.Class
	proc  *ir.Proc
	lv    *dataflow.Liveness
	frame *alloc.Frame

	maxRounds  int
	rounds     int
	totalEdges int
	usedCallee map[target.Reg]bool

	// replaced marks temporaries eliminated by spill rewriting. Liveness
	// is computed once (per the paper), so the stale live-out sets still
	// name them; build skips them because they no longer exist in the
	// code.
	replaced []bool

	// Node space: 0..K-1 are the allocatable registers of the class
	// (precolored), K.. are this class's temporaries.
	k       int
	regs    []target.Reg // node -> machine register (precolored nodes)
	tempOf  []ir.Temp    // node -> temp (temp nodes)
	nodeOf  []int32      // temp -> node or -1
	n       int          // total nodes
	noSpill []bool       // per temp: spill temporaries are not respilled

	// George-Appel state (rebuilt every round).
	adj       *bitset.Matrix
	adjList   [][]int32
	degree    []int32
	moveList  [][]int32
	alias     []int32
	color     []int32 // node -> color index into allocOrder, -1 = none
	state     []nodeState
	costs     []float64
	selectSt  []int32
	simplify  []int32 // worklists as stacks/sets with state tags
	freezeWl  map[int32]bool
	spillWl   map[int32]bool
	spilled   []int32
	coalesced []int32

	// Moves: mv[i] identifies one move instruction.
	mvSrc, mvDst []int32
	mvState      []moveState
	worklistMv   []int32
	activeMv     map[int32]bool
}

type nodeState uint8

const (
	stInitial nodeState = iota
	stPrecolored
	stSimplifyWl
	stFreezeWl
	stSpillWl
	stSpilled
	stCoalesced
	stColored
	stSelectStack
)

type moveState uint8

const (
	mvWorklist moveState = iota
	mvActive
	mvCoalesced
	mvConstrained
	mvFrozen
)

const inf = int32(math.MaxInt32 / 2)

func (g *colorer) run() error {
	g.usedCallee = make(map[target.Reg]bool)
	g.noSpill = make([]bool, g.proc.NumTemps())
	g.replaced = make([]bool, g.proc.NumTemps())
	for {
		g.rounds++
		if g.rounds > g.maxRounds {
			return fmt.Errorf("coloring did not converge after %d rounds", g.maxRounds)
		}
		g.initRound()
		g.build()
		g.totalEdges += g.adj.Count()
		g.mkWorklists()
		for {
			switch {
			case len(g.simplify) > 0:
				g.doSimplify()
			case len(g.worklistMv) > 0:
				g.doCoalesce()
			case len(g.freezeWl) > 0:
				g.doFreeze()
			case len(g.spillWl) > 0:
				g.selectSpill()
			default:
				goto assign
			}
		}
	assign:
		g.assignColors()
		if len(g.spilled) == 0 {
			g.applyColors()
			return nil
		}
		g.insertSpills()
	}
}

func (g *colorer) initRound() {
	order := g.mach.AllocOrder(g.class)
	g.k = len(order)
	g.regs = order
	nt := g.proc.NumTemps()
	g.nodeOf = make([]int32, nt)
	g.tempOf = g.tempOf[:0]
	for t := 0; t < nt; t++ {
		g.nodeOf[t] = -1
		if g.proc.TempClass(ir.Temp(t)) == g.class {
			g.nodeOf[t] = int32(g.k + len(g.tempOf))
			g.tempOf = append(g.tempOf, ir.Temp(t))
		}
	}
	g.n = g.k + len(g.tempOf)

	g.adj = bitset.NewMatrix(g.n)
	g.adjList = make([][]int32, g.n)
	g.degree = make([]int32, g.n)
	g.moveList = make([][]int32, g.n)
	g.alias = make([]int32, g.n)
	g.color = make([]int32, g.n)
	g.state = make([]nodeState, g.n)
	g.costs = make([]float64, g.n)
	g.selectSt = g.selectSt[:0]
	g.simplify = g.simplify[:0]
	g.freezeWl = make(map[int32]bool)
	g.spillWl = make(map[int32]bool)
	g.spilled = g.spilled[:0]
	g.coalesced = g.coalesced[:0]
	g.mvSrc = g.mvSrc[:0]
	g.mvDst = g.mvDst[:0]
	g.mvState = g.mvState[:0]
	g.worklistMv = g.worklistMv[:0]
	g.activeMv = make(map[int32]bool)

	for i := 0; i < g.n; i++ {
		g.alias[i] = int32(i)
		g.color[i] = -1
		if i < g.k {
			g.state[i] = stPrecolored
			g.degree[i] = inf
			g.color[i] = int32(i)
		}
	}
}

// nodeForOperand maps an operand to a node of this class, or -1.
func (g *colorer) nodeForOperand(o ir.Operand) int32 {
	switch o.Kind {
	case ir.KindTemp:
		if int(o.Temp) < len(g.nodeOf) {
			return g.nodeOf[o.Temp]
		}
	case ir.KindReg:
		if g.mach.RegClass(o.Reg) == g.class && g.mach.Allocatable(o.Reg) {
			for i, r := range g.regs {
				if r == o.Reg {
					return int32(i)
				}
			}
		}
	}
	return -1
}

// build constructs the interference graph and the move worklist with one
// backward pass per block, seeding liveness from the precomputed
// per-block live-out sets (only cross-block temporaries appear there;
// everything else, including spill temporaries from earlier rounds, is
// handled by the in-block scan).
func (g *colorer) build() {
	live := make(map[int32]bool, 64)
	var defs, uses, liveKeys []int32
	callerSaved := g.mach.CallerSavedRegs(g.class)

	for bi := len(g.proc.Blocks) - 1; bi >= 0; bi-- {
		b := g.proc.Blocks[bi]
		for k := range live {
			delete(live, k)
		}
		g.lv.LiveOut[b.Order].ForEach(func(gi int) {
			t := g.lv.Globals[gi]
			if int(t) < len(g.replaced) && g.replaced[t] {
				return
			}
			if nd := g.nodeOf[t]; nd >= 0 {
				live[nd] = true
			}
		})
		weight := math.Pow(10, float64(min(b.Depth, 8)))
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			defs, uses = defs[:0], uses[:0]
			for _, o := range in.Defs {
				if nd := g.nodeForOperand(o); nd >= 0 {
					defs = append(defs, nd)
				}
			}
			for _, o := range in.Uses {
				if nd := g.nodeForOperand(o); nd >= 0 {
					uses = append(uses, nd)
				}
			}
			if in.Op == ir.Call {
				// A call defines every caller-saved register: values
				// live across it must take callee-saved colors.
				for _, r := range callerSaved {
					if nd := g.nodeForOperand(ir.RegOp(r)); nd >= 0 {
						defs = append(defs, nd)
					}
				}
			}
			for _, nd := range defs {
				g.costs[nd] += weight
			}
			for _, nd := range uses {
				g.costs[nd] += weight
			}
			if in.Op.IsMove() && len(uses) == 1 && len(defs) == 1 {
				// Move: source does not interfere with destination.
				delete(live, uses[0])
				m := int32(len(g.mvSrc))
				g.mvSrc = append(g.mvSrc, uses[0])
				g.mvDst = append(g.mvDst, defs[0])
				g.mvState = append(g.mvState, mvWorklist)
				g.worklistMv = append(g.worklistMv, m)
				g.moveList[uses[0]] = append(g.moveList[uses[0]], m)
				if defs[0] != uses[0] {
					g.moveList[defs[0]] = append(g.moveList[defs[0]], m)
				}
			}
			for _, d := range defs {
				live[d] = true
			}
			// Materialize the live set in sorted order so the adjacency
			// lists — and therefore worklist evolution and color choice —
			// do not depend on map iteration order: allocation must be a
			// deterministic function of its input.
			liveKeys = liveKeys[:0]
			for l := range live {
				liveKeys = append(liveKeys, l)
			}
			slices.Sort(liveKeys)
			for _, d := range defs {
				for _, l := range liveKeys {
					g.addEdge(l, d)
				}
			}
			for _, d := range defs {
				delete(live, d)
			}
			for _, u := range uses {
				live[u] = true
			}
		}
	}
}

func (g *colorer) addEdge(u, v int32) {
	if u == v || g.adj.Has(int(u), int(v)) {
		return
	}
	g.adj.Set(int(u), int(v))
	if g.state[u] != stPrecolored {
		g.adjList[u] = append(g.adjList[u], v)
		g.degree[u]++
	}
	if g.state[v] != stPrecolored {
		g.adjList[v] = append(g.adjList[v], u)
		g.degree[v]++
	}
}

func (g *colorer) mkWorklists() {
	for nd := int32(g.k); nd < int32(g.n); nd++ {
		switch {
		case g.degree[nd] >= int32(g.k):
			g.state[nd] = stSpillWl
			g.spillWl[nd] = true
		case g.moveRelated(nd):
			g.state[nd] = stFreezeWl
			g.freezeWl[nd] = true
		default:
			g.state[nd] = stSimplifyWl
			g.simplify = append(g.simplify, nd)
		}
	}
}

func (g *colorer) nodeMoves(nd int32) []int32 {
	var out []int32
	for _, m := range g.moveList[nd] {
		if g.mvState[m] == mvActive || g.mvState[m] == mvWorklist {
			out = append(out, m)
		}
	}
	return out
}

func (g *colorer) moveRelated(nd int32) bool {
	for _, m := range g.moveList[nd] {
		if g.mvState[m] == mvActive || g.mvState[m] == mvWorklist {
			return true
		}
	}
	return false
}

// adjacent yields current neighbors: adjList minus select stack and
// coalesced nodes.
func (g *colorer) adjacent(nd int32, f func(int32)) {
	for _, w := range g.adjList[nd] {
		if g.state[w] != stSelectStack && g.state[w] != stCoalesced {
			f(w)
		}
	}
}

func (g *colorer) doSimplify() {
	nd := g.simplify[len(g.simplify)-1]
	g.simplify = g.simplify[:len(g.simplify)-1]
	if g.state[nd] != stSimplifyWl {
		return // stale entry: the node was coalesced or moved since
	}
	g.state[nd] = stSelectStack
	g.selectSt = append(g.selectSt, nd)
	g.adjacent(nd, func(w int32) { g.decrementDegree(w) })
}

func (g *colorer) decrementDegree(nd int32) {
	if g.state[nd] == stPrecolored {
		return
	}
	d := g.degree[nd]
	g.degree[nd] = d - 1
	if d == int32(g.k) {
		// nd just became low-degree: its moves (and its neighbors')
		// become retryable.
		g.enableMoves(nd)
		g.adjacent(nd, func(w int32) { g.enableMoves(w) })
		if g.state[nd] == stSpillWl {
			delete(g.spillWl, nd)
			if g.moveRelated(nd) {
				g.state[nd] = stFreezeWl
				g.freezeWl[nd] = true
			} else {
				g.state[nd] = stSimplifyWl
				g.simplify = append(g.simplify, nd)
			}
		}
	}
}

func (g *colorer) enableMoves(nd int32) {
	for _, m := range g.moveList[nd] {
		if g.mvState[m] == mvActive {
			g.mvState[m] = mvWorklist
			delete(g.activeMv, m)
			g.worklistMv = append(g.worklistMv, m)
		}
	}
}

func (g *colorer) getAlias(nd int32) int32 {
	for g.state[nd] == stCoalesced {
		nd = g.alias[nd]
	}
	return nd
}

func (g *colorer) addWorkList(nd int32) {
	if g.state[nd] != stPrecolored && !g.moveRelated(nd) && g.degree[nd] < int32(g.k) {
		if g.state[nd] == stFreezeWl {
			delete(g.freezeWl, nd)
		}
		g.state[nd] = stSimplifyWl
		g.simplify = append(g.simplify, nd)
	}
}

// ok is George's test for coalescing with a precolored node.
func (g *colorer) ok(t, r int32) bool {
	return g.degree[t] < int32(g.k) || g.state[t] == stPrecolored || g.adj.Has(int(t), int(r))
}

// conservative is Briggs's test.
func (g *colorer) conservative(u, v int32) bool {
	cnt := 0
	seen := map[int32]bool{}
	count := func(w int32) {
		if !seen[w] {
			seen[w] = true
			if g.degree[w] >= int32(g.k) {
				cnt++
			}
		}
	}
	g.adjacent(u, count)
	g.adjacent(v, count)
	return cnt < g.k
}

func (g *colorer) doCoalesce() {
	m := g.worklistMv[len(g.worklistMv)-1]
	g.worklistMv = g.worklistMv[:len(g.worklistMv)-1]
	if g.mvState[m] != mvWorklist {
		return
	}
	x := g.getAlias(g.mvSrc[m])
	y := g.getAlias(g.mvDst[m])
	u, v := x, y
	if g.state[y] == stPrecolored {
		u, v = y, x
	}
	switch {
	case u == v:
		g.mvState[m] = mvCoalesced
		g.addWorkList(u)
	case g.state[v] == stPrecolored || g.adj.Has(int(u), int(v)):
		g.mvState[m] = mvConstrained
		g.addWorkList(u)
		g.addWorkList(v)
	case (g.state[u] == stPrecolored && g.allAdjOK(v, u)) ||
		(g.state[u] != stPrecolored && g.conservative(u, v)):
		g.mvState[m] = mvCoalesced
		g.combine(u, v)
		g.addWorkList(u)
	default:
		g.mvState[m] = mvActive
		g.activeMv[m] = true
	}
}

func (g *colorer) allAdjOK(v, u int32) bool {
	ok := true
	g.adjacent(v, func(t int32) {
		if !g.ok(t, u) {
			ok = false
		}
	})
	return ok
}

func (g *colorer) combine(u, v int32) {
	switch g.state[v] {
	case stFreezeWl:
		delete(g.freezeWl, v)
	case stSpillWl:
		delete(g.spillWl, v)
	}
	g.state[v] = stCoalesced
	g.coalesced = append(g.coalesced, v)
	g.alias[v] = u
	g.moveList[u] = append(g.moveList[u], g.moveList[v]...)
	g.costs[u] += g.costs[v]
	g.adjacent(v, func(t int32) {
		g.addEdge(t, u)
		g.decrementDegree(t)
	})
	if g.degree[u] >= int32(g.k) && g.state[u] == stFreezeWl {
		delete(g.freezeWl, u)
		g.state[u] = stSpillWl
		g.spillWl[u] = true
	}
}

func (g *colorer) doFreeze() {
	// Freeze the lowest-numbered candidate rather than an arbitrary map
	// element, keeping the whole allocation deterministic.
	var nd int32 = -1
	for w := range g.freezeWl {
		if nd < 0 || w < nd {
			nd = w
		}
	}
	delete(g.freezeWl, nd)
	g.state[nd] = stSimplifyWl
	g.simplify = append(g.simplify, nd)
	g.freezeMoves(nd)
}

func (g *colorer) freezeMoves(u int32) {
	for _, m := range g.nodeMoves(u) {
		x, y := g.mvSrc[m], g.mvDst[m]
		v := g.getAlias(y)
		if v == g.getAlias(u) {
			v = g.getAlias(x)
		}
		if g.mvState[m] == mvActive {
			delete(g.activeMv, m)
		}
		g.mvState[m] = mvFrozen
		if g.state[v] == stFreezeWl && !g.moveRelated(v) && g.degree[v] < int32(g.k) {
			delete(g.freezeWl, v)
			g.state[v] = stSimplifyWl
			g.simplify = append(g.simplify, v)
		}
	}
}

// selectSpill picks the cheapest spill candidate: occurrence weight
// divided by current degree (the classic Chaitin metric the paper's
// experimental setup uses, with loop-depth-weighted occurrence counts).
// Spill temporaries from earlier rounds are avoided.
func (g *colorer) selectSpill() {
	var best int32 = -1
	bestCost := math.Inf(1)
	bestNoSpill := true
	for nd := range g.spillWl {
		t := g.tempOf[nd-int32(g.k)]
		ns := g.noSpill[t]
		cost := g.costs[nd] / float64(g.degree[nd])
		// Break exact-cost ties by node id so the choice does not
		// depend on map iteration order.
		if (bestNoSpill && !ns) ||
			(ns == bestNoSpill && (cost < bestCost || (cost == bestCost && (best < 0 || nd < best)))) {
			best, bestCost, bestNoSpill = nd, cost, ns
		}
	}
	delete(g.spillWl, best)
	g.state[best] = stSimplifyWl
	g.simplify = append(g.simplify, best)
	g.freezeMoves(best)
}

func (g *colorer) assignColors() {
	taken := make([]bool, g.k)
	for len(g.selectSt) > 0 {
		nd := g.selectSt[len(g.selectSt)-1]
		g.selectSt = g.selectSt[:len(g.selectSt)-1]
		for i := range taken {
			taken[i] = false
		}
		for _, w := range g.adjList[nd] {
			wa := g.getAlias(w)
			if g.state[wa] == stColored || g.state[wa] == stPrecolored {
				taken[g.color[wa]] = true
			}
		}
		picked := int32(-1)
		for i := 0; i < g.k; i++ {
			if !taken[i] {
				picked = int32(i)
				break
			}
		}
		if picked < 0 {
			g.state[nd] = stSpilled
			g.spilled = append(g.spilled, nd)
			continue
		}
		g.state[nd] = stColored
		g.color[nd] = picked
	}
	for _, v := range g.coalesced {
		a := g.getAlias(v)
		if g.state[a] == stColored || g.state[a] == stPrecolored {
			g.state[v] = stColored
			g.color[v] = g.color[a]
		} else {
			// Alias spilled: the coalesced node spills with it.
			g.state[v] = stSpilled
			g.spilled = append(g.spilled, v)
		}
	}
}

// insertSpills rewrites each spilled temporary with a fresh temporary per
// reference plus a load before each use and a store after each def (the
// classic spill-everywhere rewrite; the new temporaries are block-local).
func (g *colorer) insertSpills() {
	spilledTemp := make(map[ir.Temp]bool, len(g.spilled))
	for _, nd := range g.spilled {
		t := g.tempOf[nd-int32(g.k)]
		spilledTemp[t] = true
		g.replaced[t] = true
	}
	for _, b := range g.proc.Blocks {
		out := make([]ir.Instr, 0, len(b.Instrs))
		for i := range b.Instrs {
			in := b.Instrs[i]
			fresh := map[ir.Temp]ir.Temp{}
			repl := func(t ir.Temp) ir.Temp {
				nt, ok := fresh[t]
				if !ok {
					nt = g.proc.NewTemp(g.proc.TempClass(t), g.proc.TempName(t)+".s")
					g.noSpill = append(g.noSpill, true)
					g.replaced = append(g.replaced, false)
					fresh[t] = nt
				}
				return nt
			}
			var post []ir.Instr
			clonedUses := false
			for ui := range in.Uses {
				o := in.Uses[ui]
				if o.Kind != ir.KindTemp || !spilledTemp[o.Temp] {
					continue
				}
				_, already := fresh[o.Temp]
				nt := repl(o.Temp)
				if !already {
					// One load per spilled temp per instruction, even
					// with repeated uses.
					out = append(out, ir.Instr{
						Op:   ir.SpillLd,
						Tag:  ir.TagScanLoad,
						Pos:  in.Pos,
						Defs: []ir.Operand{ir.TempOp(nt)},
						Uses: []ir.Operand{ir.SlotOp(g.frame.SlotOf(o.Temp), o.Temp)},
					})
				}
				if !clonedUses {
					in.Uses = append([]ir.Operand(nil), in.Uses...)
					clonedUses = true
				}
				in.Uses[ui] = ir.TempOp(nt)
			}
			clonedDefs := false
			for di := range in.Defs {
				o := in.Defs[di]
				if o.Kind != ir.KindTemp || !spilledTemp[o.Temp] {
					continue
				}
				// A def reuses the use's fresh temp within the same
				// instruction (read-modify-write) but still stores.
				nt := repl(o.Temp)
				if !clonedDefs {
					in.Defs = append([]ir.Operand(nil), in.Defs...)
					clonedDefs = true
				}
				in.Defs[di] = ir.TempOp(nt)
				post = append(post, ir.Instr{
					Op:   ir.SpillSt,
					Tag:  ir.TagScanStore,
					Pos:  in.Pos,
					Uses: []ir.Operand{ir.TempOp(nt), ir.SlotOp(g.frame.SlotOf(o.Temp), o.Temp)},
				})
			}
			out = append(out, in)
			out = append(out, post...)
		}
		b.Instrs = out
	}
}

// applyColors rewrites temp operands of this class to their registers and
// deletes moves that coalescing made redundant.
func (g *colorer) applyColors() {
	for _, b := range g.proc.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			rewrote := false
			for ui := range in.Uses {
				o := in.Uses[ui]
				if o.Kind != ir.KindTemp || g.nodeOf[o.Temp] < 0 {
					continue
				}
				if !rewrote {
					in.Uses = append([]ir.Operand(nil), in.Uses...)
					if in.OrigUses == nil {
						in.OrigUses = make([]ir.Temp, len(in.Uses))
						for k := range in.OrigUses {
							in.OrigUses[k] = ir.NoTemp
						}
					}
				}
				rewrote = true
				in.Uses[ui] = ir.RegOp(g.regOfNode(g.nodeOf[o.Temp]))
				in.OrigUses[ui] = o.Temp
			}
			rewroteDef := false
			for di := range in.Defs {
				o := in.Defs[di]
				if o.Kind != ir.KindTemp || g.nodeOf[o.Temp] < 0 {
					continue
				}
				if !rewroteDef {
					in.Defs = append([]ir.Operand(nil), in.Defs...)
					if in.OrigDefs == nil {
						in.OrigDefs = make([]ir.Temp, len(in.Defs))
						for k := range in.OrigDefs {
							in.OrigDefs[k] = ir.NoTemp
						}
					}
				}
				rewroteDef = true
				in.Defs[di] = ir.RegOp(g.regOfNode(g.nodeOf[o.Temp]))
				in.OrigDefs[di] = o.Temp
			}
			// Coalesced moves are now self-moves. The peephole pass that
			// follows allocation in the experimental pipeline (§3)
			// deletes them; they are kept here so the verifier still
			// sees the definition point each one represents.
			out = append(out, in)
		}
		b.Instrs = out
	}
}

func (g *colorer) regOfNode(nd int32) target.Reg {
	a := g.getAlias(nd)
	c := g.color[a]
	if c < 0 {
		panic(fmt.Sprintf("coloring: node %d (temp %s) has no color",
			nd, g.proc.TempName(g.tempOf[nd-int32(g.k)])))
	}
	r := g.regs[c]
	if !g.mach.CallerSaved(r) {
		g.usedCallee[r] = true
	}
	return r
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
