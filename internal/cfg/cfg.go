// Package cfg provides control-flow-graph analyses over ir.Proc: reverse
// postorder, dominators, natural loops, and loop nesting depth.
//
// Loop depth is shared infrastructure in the paper's experimental setup:
// "Loop depth is used in the same way to weight occurrence counts in both
// allocators" (§3). Both the binpacking eviction heuristic and the
// coloring spill metric consume Block.Depth computed here.
package cfg

import (
	"slices"

	"repro/internal/ir"
	"repro/internal/scratch"
)

// Scratch is the storage of the loop analysis, reused from one
// procedure to the next: every table is a slice indexed by Block.Order
// or by reverse-postorder number, and blocks are held by Order, so a
// warm Scratch analyses a procedure no larger than the largest it has
// seen without allocating, and keeps no procedure alive. An allocator
// keeps one. The zero value is ready to use; a Scratch must not be used
// concurrently.
type Scratch struct {
	rpo   []int32    // Order of the reachable blocks in reverse postorder
	num   []int32    // Block.Order → reverse-postorder number, -1 if unreachable
	idom  []int32    // rpo number → rpo number of the immediate dominator, -1 if unknown
	walk  []dfsFrame // the depth-first walk's stack
	stack []int32    // Order of the blocks on a loop body's worklist
	mark  []int32    // Block.Order → 1 + Order of the last loop header whose body holds it
}

// dfsFrame is one block of the depth-first walk, by Order, and the
// index of the next successor to visit.
type dfsFrame struct {
	order, next int32
}

// reversePostorder fills sc.rpo with the blocks reachable from the
// entry in reverse postorder and sc.num with each block's position in
// it. Block.Order must be each block's layout index (NewBlock, Renumber
// and the binary decoder assign it).
func (sc *Scratch) reversePostorder(p *ir.Proc) {
	nb := len(p.Blocks)
	sc.num = scratch.Grow(sc.num, nb)
	for i := range sc.num {
		sc.num[i] = -1
	}
	sc.rpo = sc.rpo[:0]
	if nb == 0 {
		return
	}
	// -2 marks a block seen until its number is known.
	sc.walk = append(sc.walk[:0], dfsFrame{})
	sc.num[0] = -2
	for len(sc.walk) > 0 {
		f := &sc.walk[len(sc.walk)-1]
		if succs := p.Blocks[f.order].Succs; int(f.next) < len(succs) {
			s := succs[f.next].Order
			f.next++
			if sc.num[s] == -1 {
				sc.num[s] = -2
				sc.walk = append(sc.walk, dfsFrame{order: int32(s)})
			}
			continue
		}
		sc.rpo = append(sc.rpo, f.order)
		sc.walk = sc.walk[:len(sc.walk)-1]
	}
	slices.Reverse(sc.rpo)
	for i, o := range sc.rpo {
		sc.num[o] = int32(i)
	}
}

// dominators fills sc.idom with the immediate dominator of every
// reachable block, by reverse-postorder number, using the
// Cooper–Harvey–Kennedy iterative algorithm. The entry block (number 0)
// is its own immediate dominator.
func (sc *Scratch) dominators(p *ir.Proc) {
	sc.reversePostorder(p)
	n := len(sc.rpo)
	sc.idom = scratch.Grow(sc.idom, n)
	for i := range sc.idom {
		sc.idom[i] = -1
	}
	if n == 0 {
		return
	}
	idom := sc.idom
	idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for a > b {
				a = idom[a]
			}
			for b > a {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i < n; i++ {
			newIdom := int32(-1)
			for _, pred := range p.Blocks[sc.rpo[i]].Preds {
				pi := sc.num[pred.Order]
				if pi < 0 || idom[pi] < 0 {
					continue // pred unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = pi
				} else {
					newIdom = intersect(pi, newIdom)
				}
			}
			if newIdom >= 0 && idom[i] != newIdom {
				idom[i] = newIdom
				changed = true
			}
		}
	}
}

// dominates reports whether the block numbered a dominates the block
// numbered b (reflexive); both must be reachable.
func (sc *Scratch) dominates(a, b int32) bool {
	for b != a && b != 0 {
		b = sc.idom[b]
	}
	return a == b
}

// ComputeLoopDepths sets Block.Depth for every block of p to the number
// of natural loops containing it. The natural loop of a back edge t→h
// (h dominates t) is h plus every block that reaches t without passing
// through h; loops sharing a header are one loop. Block.Order must be
// each block's layout index.
func (sc *Scratch) ComputeLoopDepths(p *ir.Proc) {
	for _, b := range p.Blocks {
		b.Depth = 0
	}
	sc.dominators(p)
	sc.mark = scratch.Grow(sc.mark, len(p.Blocks))
	clear(sc.mark)
	for _, h := range p.Blocks {
		hn := sc.num[h.Order]
		if hn < 0 {
			continue // unreachable: no back edge enters it
		}
		stamp := int32(h.Order) + 1
		for _, t := range h.Preds {
			if tn := sc.num[t.Order]; tn < 0 || !sc.dominates(hn, tn) {
				continue
			}
			// t→h is a back edge; add its natural loop to h's.
			if sc.mark[h.Order] != stamp {
				sc.mark[h.Order] = stamp
				h.Depth++
			}
			sc.stack = sc.stack[:0]
			if sc.mark[t.Order] != stamp {
				sc.mark[t.Order] = stamp
				t.Depth++
				sc.stack = append(sc.stack, int32(t.Order))
			}
			for len(sc.stack) > 0 {
				x := p.Blocks[sc.stack[len(sc.stack)-1]]
				sc.stack = sc.stack[:len(sc.stack)-1]
				for _, q := range x.Preds {
					if sc.mark[q.Order] != stamp {
						sc.mark[q.Order] = stamp
						q.Depth++
						sc.stack = append(sc.stack, int32(q.Order))
					}
				}
			}
		}
	}
}

// IsCriticalEdge reports whether the edge pred→succ is critical: pred has
// several successors and succ several predecessors. The resolution phase
// must split such edges to place repair code (§2.4, footnote 1).
func IsCriticalEdge(pred, succ *ir.Block) bool {
	return len(pred.Succs) > 1 && len(succ.Preds) > 1
}
