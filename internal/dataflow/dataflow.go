// Package dataflow implements iterative bit-vector dataflow over ir CFGs,
// and the liveness analysis both allocators consume.
//
// As in the paper (§3), temporaries that are live only within a single
// basic block are excluded from the bit vectors: "temporaries that are
// live only within a single basic block are excluded from dataflow
// analysis, which greatly reduces bit vector sizes". A temporary can be
// live across an edge only if some block reads it before writing it
// (upward exposure), so the global universe is exactly the set of
// upward-exposed temporaries.
//
// Both entry points come in two forms: the plain functions
// (SolveBackwardUnion, Compute) allocate their working storage fresh, and
// the scratch-based forms (SolverScratch.Solve, Scratch.Compute) reuse a
// caller-owned arena so that repeated analyses on one allocator instance
// — the engine's batch hot path — run allocation-free in steady state.
package dataflow

import (
	"repro/internal/bitset"
	"repro/internal/ir"
	"repro/internal/scratch"
)

// SolverScratch holds the reusable working storage of the backward-union
// solver: one bitset slab for the In/Out vectors, the postorder and its
// depth-first walk, and the worklist. A scratch must not be shared
// between concurrent solves, and the slices a solve returns are valid
// only until the next Solve on the same scratch. The zero value is ready
// to use.
type SolverScratch struct {
	slab    bitset.Slab
	in      []*bitset.Set
	out     []*bitset.Set
	po      []*ir.Block // postorder
	rank    []int32     // Block.Order → index in po
	pending []bool      // by rank: the worklist
	seen    []bool      // by Block.Order, during the walk
	stack   []dfsFrame
	tmp     bitset.Set
}

// dfsFrame is one block on the depth-first walk's stack and the index of
// the next successor to visit.
type dfsFrame struct {
	b    *ir.Block
	next int
}

// postorder returns blocks in depth-first postorder over Succs: from the
// first block (the entry), then from every block the walks so far have
// not reached, in layout order, so that every block gets a place.
func (sc *SolverScratch) postorder(blocks []*ir.Block) []*ir.Block {
	po := sc.po[:0]
	sc.seen = scratch.GrowCleared(sc.seen, len(blocks))
	seen := sc.seen
	stack := sc.stack[:0]
	for _, root := range blocks {
		if seen[root.Order] {
			continue
		}
		seen[root.Order] = true
		stack = append(stack, dfsFrame{b: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(f.b.Succs) {
				s := f.b.Succs[f.next]
				f.next++
				if !seen[s.Order] {
					seen[s.Order] = true
					stack = append(stack, dfsFrame{b: s})
				}
				continue
			}
			po = append(po, f.b)
			stack = stack[:len(stack)-1]
		}
	}
	sc.po, sc.stack = po, stack
	return po
}

// Solve solves the classic backward union problem
//
//	Out(b) = ⋃_{s ∈ succ(b)} In(s)
//	In(b)  = Gen(b) ∪ (Out(b) − Kill(b))
//
// over the given blocks with a worklist, and returns In and Out indexed
// by Block.Order. gen and kill may be nil to mean the empty set. The
// universe size is n. Both liveness and the paper's USED_CONSISTENCY
// consistency-repair analysis (§2.4) are instances of this problem.
func (sc *SolverScratch) Solve(blocks []*ir.Block, n int, gen, kill func(*ir.Block) *bitset.Set) (in, out []*bitset.Set) {
	nb := len(blocks)
	sc.slab.Reset(2*nb, n)
	sc.in = scratch.Grow(sc.in, nb)
	sc.out = scratch.Grow(sc.out, nb)
	for i := 0; i < nb; i++ {
		sc.in[i] = sc.slab.Set(i)
		sc.out[i] = sc.slab.Set(nb + i)
	}
	in, out = sc.in, sc.out

	// Initialize In(b) = Gen(b).
	for _, b := range blocks {
		if gen != nil {
			if g := gen(b); g != nil {
				in[b.Order].Copy(g)
			}
		}
	}
	// The worklist is kept in postorder and always yields its lowest
	// pending block, so a block is solved after its successors (except
	// across back edges): the order in which a backward problem
	// converges fastest. A change to In(b) makes b's predecessors
	// pending again.
	po := sc.postorder(blocks)
	sc.rank = scratch.Grow(sc.rank, nb)
	rank := sc.rank
	for i, b := range po {
		rank[b.Order] = int32(i)
	}
	sc.pending = scratch.Grow(sc.pending, nb)
	pending := sc.pending
	for i := range pending {
		pending[i] = true
	}
	sc.tmp.Reset(n)
	tmp := &sc.tmp
	for next := 0; ; next++ {
		for next < nb && !pending[next] {
			next++
		}
		if next == nb {
			break
		}
		pending[next] = false
		b := po[next]

		o := out[b.Order]
		for _, s := range b.Succs {
			o.Union(in[s.Order])
		}
		// In(b) = Gen(b) ∪ (Out(b) − Kill(b))
		tmp.Copy(o)
		if kill != nil {
			if k := kill(b); k != nil {
				tmp.Subtract(k)
			}
		}
		if gen != nil {
			if g := gen(b); g != nil {
				tmp.Union(g)
			}
		}
		if !tmp.Equal(in[b.Order]) {
			in[b.Order].Copy(tmp)
			for _, pred := range b.Preds {
				r := int(rank[pred.Order])
				pending[r] = true
				if r <= next {
					next = r - 1 // the loop's next++ lands on r
				}
			}
		}
	}
	// Clear the postorder's and the stack's full capacity before
	// pooling them: their tails hold *ir.Block pointers from this solve
	// that would otherwise pin the procedure until the next one.
	clear(sc.po[:cap(sc.po)])
	clear(sc.stack[:cap(sc.stack)])
	return in, out
}

// SolveBackwardUnion is SolverScratch.Solve with throwaway storage; see
// that method for the problem statement.
func SolveBackwardUnion(blocks []*ir.Block, n int, gen, kill func(*ir.Block) *bitset.Set) (in, out []*bitset.Set) {
	return new(SolverScratch).Solve(blocks, n, gen, kill)
}

// Liveness holds the result of liveness analysis over a procedure's
// cross-block ("global") temporaries.
type Liveness struct {
	// Globals maps dense global index → temporary.
	Globals []ir.Temp
	// Index maps temporary → dense global index, or -1 for block-local
	// temporaries (which are never live across an edge).
	Index []int32
	// LiveIn/LiveOut are indexed by Block.Order over the global
	// universe.
	LiveIn  []*bitset.Set
	LiveOut []*bitset.Set
}

// NumGlobals returns the size of the cross-block universe.
func (lv *Liveness) NumGlobals() int { return len(lv.Globals) }

// GlobalIndex returns the dense index of t, or -1 if t is block-local.
func (lv *Liveness) GlobalIndex(t ir.Temp) int { return int(lv.Index[t]) }

// LiveOutTemps appends the temporaries live out of b to buf.
func (lv *Liveness) LiveOutTemps(b *ir.Block, buf []ir.Temp) []ir.Temp {
	lv.LiveOut[b.Order].ForEach(func(i int) { buf = append(buf, lv.Globals[i]) })
	return buf
}

// LiveInTemps appends the temporaries live into b to buf.
func (lv *Liveness) LiveInTemps(b *ir.Block, buf []ir.Temp) []ir.Temp {
	lv.LiveIn[b.Order].ForEach(func(i int) { buf = append(buf, lv.Globals[i]) })
	return buf
}

// Scratch holds the reusable working storage of liveness analysis: the
// Liveness tables themselves, the per-block Gen/Kill slab, and the
// solver. One scratch serves one goroutine; the Liveness a Compute
// returns is owned by the scratch and valid until the next Compute on
// it. The zero value is ready to use.
type Scratch struct {
	lv         Liveness
	defined    []bool
	dirty      []ir.Temp
	ubuf, dbuf []ir.Temp
	genKill    bitset.Slab
	gen, kill  []*bitset.Set
	solver     SolverScratch
}

// Compute runs liveness analysis into the scratch's pooled storage. The
// procedure must have been Renumber()ed so Block.Order indexes the
// layout slice.
func (sc *Scratch) Compute(p *ir.Proc) *Liveness {
	nt := p.NumTemps()
	lv := &sc.lv
	lv.Index = scratch.Grow(lv.Index, nt)
	for i := range lv.Index {
		lv.Index[i] = -1
	}
	lv.Globals = lv.Globals[:0]

	// Pass 1: find upward-exposed temporaries (the global universe).
	sc.defined = scratch.GrowCleared(sc.defined, nt)
	defined := sc.defined
	definedDirty := sc.dirty[:0]
	ubuf, dbuf := sc.ubuf, sc.dbuf
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			ubuf = in.UseTemps(ubuf[:0])
			for _, t := range ubuf {
				if !defined[t] && lv.Index[t] < 0 {
					lv.Index[t] = int32(len(lv.Globals))
					lv.Globals = append(lv.Globals, t)
				}
			}
			dbuf = in.DefTemps(dbuf[:0])
			for _, t := range dbuf {
				if !defined[t] {
					defined[t] = true
					definedDirty = append(definedDirty, t)
				}
			}
		}
		for _, t := range definedDirty {
			defined[t] = false
		}
		definedDirty = definedDirty[:0]
	}
	sc.dirty = definedDirty

	n := len(lv.Globals)

	// Pass 2: per-block UEVar (gen) and VarKill (kill) over globals.
	nb := len(p.Blocks)
	sc.genKill.Reset(2*nb, n)
	sc.gen = scratch.Grow(sc.gen, nb)
	sc.kill = scratch.Grow(sc.kill, nb)
	for _, b := range p.Blocks {
		g := sc.genKill.Set(b.Order)
		k := sc.genKill.Set(nb + b.Order)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			ubuf = in.UseTemps(ubuf[:0])
			for _, t := range ubuf {
				if gi := lv.Index[t]; gi >= 0 && !k.Contains(int(gi)) {
					g.Add(int(gi))
				}
			}
			dbuf = in.DefTemps(dbuf[:0])
			for _, t := range dbuf {
				if gi := lv.Index[t]; gi >= 0 {
					k.Add(int(gi))
				}
			}
		}
		sc.gen[b.Order] = g
		sc.kill[b.Order] = k
	}
	sc.ubuf, sc.dbuf = ubuf, dbuf

	lv.LiveIn, lv.LiveOut = sc.solver.Solve(p.Blocks, n,
		func(b *ir.Block) *bitset.Set { return sc.gen[b.Order] },
		func(b *ir.Block) *bitset.Set { return sc.kill[b.Order] })
	return lv
}

// Compute runs liveness analysis with throwaway storage. The procedure
// must have been Renumber()ed so Block.Order indexes the layout slice.
func Compute(p *ir.Proc) *Liveness {
	return new(Scratch).Compute(p)
}
