package core

import (
	"math"
	"sort"

	"repro/internal/alloc"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/target"
)

// twoPass implements traditional binpacking for the §3.1 ablation: "a
// version of our allocator that assigns a whole lifetime to either memory
// or register. This implementation still takes advantage of lifetime
// holes during allocation."
//
// Pass 1 walks lifetimes in order of their first live position and packs
// each whole lifetime into a register whose free space (its own holes
// minus already-packed lifetimes) contains every live segment; a lifetime
// that fits nowhere lives in memory. Pass 2 rewrites the code, routing
// references to memory-resident temporaries through reserved scratch
// registers (the standard engineering stand-in for the paper's
// always-allocated point lifetimes; see DESIGN.md).
func (a *Allocator) twoPass(p *ir.Proc, lt *lifetime.Table, rb *lifetime.RegBusy) (*alloc.Frame, []bool, error) {
	scratch := alloc.PickScratch(a.mach)
	reserved := map[target.Reg]bool{
		scratch.Int[0]: true, scratch.Int[1]: true,
		scratch.Float[0]: true, scratch.Float[1]: true,
	}

	asn := alloc.NewAssignment(p)
	packed := make([][]*lifetime.Interval, a.mach.NumRegs())

	var order []*lifetime.Interval
	for _, iv := range lt.Intervals {
		if !iv.Empty() {
			order = append(order, iv)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Start() != order[j].Start() {
			return order[i].Start() < order[j].Start()
		}
		return order[i].End() > order[j].End() // longer lifetimes first on ties
	})

	usedCallee := grow(a.scratch.usedCallee, a.mach.NumRegs())
	a.scratch.usedCallee = usedCallee
	// A lifetime fits a register when its live segments avoid the
	// register's hard-busy points (convention references and, for
	// caller-saved registers, call clobbers) — this is what shuts
	// temporaries that are live across calls out of the caller-saved
	// file under two-pass binpacking, the effect behind the paper's wc
	// result — and the lifetimes already packed into it.
	for _, iv := range order {
		cls := p.TempClass(iv.Temp)
		for _, r := range a.mach.AllocOrder(cls) {
			if reserved[r] {
				continue
			}
			if !rb.FreeOver(r, iv.Segments, math.MinInt32, 0) || !packFits(packed[r], iv) {
				continue
			}
			asn.Reg[iv.Temp] = r
			packed[r] = append(packed[r], iv)
			if !a.mach.CallerSaved(r) {
				usedCallee[r] = true
			}
			break
		}
	}

	a.scratch.frame.Reset(p)
	frame := &a.scratch.frame
	alloc.RewriteAssigned(p, a.mach, asn, frame, scratch, usedCallee)
	return frame, usedCallee, nil
}

// packFits reports whether iv's segments are disjoint from every lifetime
// already packed into the register — lifetimes may nest into one
// another's holes (§2.2).
func packFits(assigned []*lifetime.Interval, iv *lifetime.Interval) bool {
	for _, other := range assigned {
		if segmentsOverlap(iv.Segments, other.Segments) {
			return false
		}
	}
	return true
}

func segmentsOverlap(a, b []lifetime.Segment) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].End < b[j].Start {
			i++
		} else if b[j].End < a[i].Start {
			j++
		} else {
			return true
		}
	}
	return false
}
