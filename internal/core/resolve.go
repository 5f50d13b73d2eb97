package core

import (
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/ir"
	"repro/internal/moves"
	"repro/internal/scratch"
	"repro/internal/target"
)

// edgeFix is one CFG edge's repair code, collected before mutation: the
// range [lo, hi) of the pooled code buffer.
type edgeFix struct {
	pred, succ *ir.Block
	lo, hi     int32
}

// resolveTags classifies the instructions resolution inserts.
var resolveTags = moves.Tags{Load: ir.TagResolveLoad, Store: ir.TagResolveStore, Move: ir.TagResolveMove}

// resolve repairs the linear-order allocation assumptions across every CFG
// edge (§2.4). For each edge p→s and each temporary live into s it
// compares the location recorded at p's bottom with the one assumed at
// s's top and emits stores, loads and moves — sequenced as a parallel
// copy so register swaps come out in a semantically correct order. It
// also runs the USED_CONSISTENCY dataflow and inserts the stores required
// where a path reaches a point that exploited register/memory consistency
// the path does not provide.
//
// The repair code of every edge goes to pooled buffers first; then the
// final procedure is written once, into the pooled instruction buffer
// sc.final: each block's rewritten body with its top and bottom repair
// code. The repair code's operands stay in the sequencer's arena, like
// the scan's spill code. Every block gets a full-capacity sub-slice, so
// a later append (callee-save code) copies out instead of overwriting
// the next block. sc supplies the pooled working storage.
func (s *scan) resolve(sc *scanScratch) {
	ng := s.lv.NumGlobals()

	var usedCIn []*bitset.Set
	if !s.opts.StrictLinear && ng > 0 {
		// The solver scratch is distinct from the one liveness came
		// from: LiveIn/LiveOut stay valid while this solve runs.
		usedCIn, _ = s.consSolver.Solve(s.p.Blocks, ng,
			func(b *ir.Block) *bitset.Set { return s.usedC[b.Order] },
			func(b *ir.Block) *bitset.Set { return s.wrote[b.Order] })
	}

	if cap(sc.busyRegs) < s.mach.NumRegs() {
		sc.busyRegs = make([]bool, s.mach.NumRegs())
	}
	sc.botLoc = filled(sc.botLoc, ng, target.NoReg)
	sc.topLoc = filled(sc.topLoc, ng, target.NoReg)
	sc.visitBits = grow(sc.visitBits, (ng+63)/64)
	scratchReg := s.edgeScratch(sc)
	slotFor := s.frame.SlotOf

	// Collect all repairs before mutating the CFG (edge splitting would
	// otherwise disturb iteration and positions).
	blocks := s.p.Blocks
	fixes, code := sc.fixes[:0], sc.code[:0]
	for _, pb := range blocks {
		for _, sb := range pb.Succs {
			lo := len(code)
			code = s.resolveEdge(code, pb, sb, usedCIn, sc, scratchReg, slotFor)
			if len(code) > lo {
				fixes = append(fixes, edgeFix{pred: pb, succ: sb, lo: int32(lo), hi: int32(len(code))})
			}
		}
	}

	// Choose each fix's home: the bottom of a single-successor
	// predecessor (before its operand-free terminator), the top of a
	// single-predecessor successor, or a block splitting a critical edge.
	nb := len(blocks)
	sc.topFix = filled(sc.topFix, nb, -1)
	sc.botFix = filled(sc.botFix, nb, -1)
	splits := sc.splitFix[:0]
	for i, f := range fixes {
		switch {
		case len(f.pred.Succs) == 1:
			sc.botFix[f.pred.Order] = int32(i)
		case len(f.succ.Preds) == 1:
			sc.topFix[f.succ.Order] = int32(i)
		default:
			sp := s.p.SplitEdge(f.pred, f.succ)
			sp.Depth = min(f.pred.Depth, f.succ.Depth)
			splits = append(splits, int32(i))
		}
	}

	// Write the final procedure: every rewritten instruction, every
	// repair and every split block's jump, once each.
	if n := len(s.out) + len(code) + len(splits); cap(sc.final) < n {
		sc.final = make([]ir.Instr, 0, n)
	}
	final := sc.final[:0]
	repair := func(i int32) { final = append(final, code[fixes[i].lo:fixes[i].hi]...) }
	for _, b := range blocks {
		start := len(final)
		if i := sc.topFix[b.Order]; i >= 0 {
			repair(i)
		}
		body := s.out[s.body[b.Order].lo:s.body[b.Order].hi]
		if i := sc.botFix[b.Order]; i >= 0 {
			n := len(body)
			final = append(final, body[:n-1]...)
			repair(i)
			final = append(final, body[n-1])
		} else {
			final = append(final, body...)
		}
		b.Instrs = final[start:len(final):len(final)]
	}
	for k, i := range splits {
		sp := s.p.Blocks[nb+k]
		start := len(final)
		repair(i)
		final = append(final, sp.Instrs...)
		sp.Instrs = final[start:len(final):len(final)]
	}
	// Drop what a larger earlier procedure left past the end, so the
	// pooled buffer does not pin its operands.
	if len(final) < len(sc.final) {
		clear(sc.final[len(final):])
	}
	sc.final = final

	// Return the pooled buffers with their references dropped, so they
	// do not retain the procedure's blocks.
	clear(fixes)
	sc.fixes = fixes[:0]
	sc.code = code[:0]
	sc.splitFix = splits[:0]
}

// resolveEdge appends the repair code for edge pb→sb to code. It visits
// only the live-in globals of sb that sit in a register at pb's bottom
// or sb's top: every transfer has a register endpoint, and a temporary
// in memory on both sides needs none. The visited globals are taken in
// ascending index order, the order of the live-in set.
func (s *scan) resolveEdge(code []ir.Instr, pb, sb *ir.Block, usedCIn []*bitset.Set, sc *scanScratch,
	scratchReg moves.ScratchFunc, slotFor func(ir.Temp) int) []ir.Instr {
	inS := s.lv.LiveIn[sb.Order]
	botLoc, topLoc := sc.botLoc, sc.topLoc
	// Mark the visited globals in a bit vector and read them back in
	// ascending order: sorting the few words touched is cheaper than
	// sorting the globals.
	vb, words := sc.visitBits, sc.visitWords[:0]
	mark := func(gi int32) {
		w := gi >> 6
		if vb[w] == 0 {
			words = append(words, w)
		}
		vb[w] |= 1 << (gi & 63)
	}
	for _, e := range s.snapsOf(s.bot[pb.Order]) {
		if inS.Contains(int(e.gi)) {
			botLoc[e.gi] = e.r
			mark(e.gi)
		}
	}
	for _, e := range s.snapsOf(s.top[sb.Order]) {
		topLoc[e.gi] = e.r
		mark(e.gi)
	}
	slices.Sort(words)
	visit := sc.visit[:0]
	for _, w := range words {
		for x := vb[w]; x != 0; x &= x - 1 {
			visit = append(visit, w<<6|int32(bits.TrailingZeros64(x)))
		}
		vb[w] = 0
	}
	sc.visit, sc.visitWords = visit, words

	consP := s.savedCons[pb.Order]
	ts := sc.transfers[:0]
	busyRegs := sc.busyRegs
	busyDirty := sc.busyDirty[:0]
	markBusy := func(r target.Reg) {
		if !busyRegs[r] {
			busyRegs[r] = true
			busyDirty = append(busyDirty, r)
		}
	}
	for _, gi := range visit {
		lp, ls := botLoc[gi], topLoc[gi]
		botLoc[gi], topLoc[gi] = target.NoReg, target.NoReg
		t := s.lv.Globals[gi]
		cls := s.p.TempClass(t)
		inRegP := lp != target.NoReg
		inRegS := ls != target.NoReg
		if inRegP {
			markBusy(lp)
		}
		if inRegS {
			markBusy(ls)
		}
		needCons := usedCIn != nil && usedCIn[sb.Order].Contains(int(gi))
		consAtP := consP.Contains(int(gi))

		switch {
		case inRegP && inRegS:
			if lp != ls {
				// "If the temporary was in two different registers
				// across the edge, we insert a move instruction."
				ts = append(ts, moves.Transfer{Temp: t, Class: cls,
					Src: moves.RegLoc(lp), Dst: moves.RegLoc(ls)})
			}
			if needCons && !consAtP {
				ts = append(ts, moves.Transfer{Temp: t, Class: cls,
					Src: moves.RegLoc(lp), Dst: moves.SlotLoc(s.frame.SlotOf(t))})
			}
		case inRegP:
			// Register → memory: "we insert a store instruction (but
			// only if a temporary's allocated register and memory home
			// are inconsistent)."
			if !consAtP {
				ts = append(ts, moves.Transfer{Temp: t, Class: cls,
					Src: moves.RegLoc(lp), Dst: moves.SlotLoc(s.frame.SlotOf(t))})
			}
		default:
			// Memory → register: load.
			ts = append(ts, moves.Transfer{Temp: t, Class: cls,
				Src: moves.SlotLoc(s.frame.SlotOf(t)), Dst: moves.RegLoc(ls)})
		}
	}
	sc.transfers = ts
	if len(ts) > 0 {
		// The repair code runs on the edge: before sb's first original
		// instruction (top or split placement) or before pb's Jmp
		// (bottom placement). A scratch register for cycle breaking must
		// be dead there: not holding any live-in value on either side
		// and not hard-busy at the boundary.
		sc.edgePos = s.out[s.body[pb.Order].hi-1].Pos
		if b := s.body[sb.Order]; b.hi > b.lo {
			sc.edgePos = s.out[b.lo].Pos
		}
		code = sc.seq.Sequence(code, ts, scratchReg, slotFor, resolveTags)
	}
	for _, r := range busyDirty {
		busyRegs[r] = false
	}
	sc.busyDirty = busyDirty[:0]
	return code
}

// edgeScratch returns the scratch-register chooser of resolveEdge: a
// register of the class that is not busy on the current edge (sc.busyRegs)
// nor hard-busy at its boundary (sc.edgePos), and that needs no unplanned
// callee save.
func (s *scan) edgeScratch(sc *scanScratch) moves.ScratchFunc {
	return func(c target.Class) (target.Reg, bool) {
		for _, r := range s.mach.AllocOrder(c) {
			if sc.busyRegs[r] || s.rb.BusyAt(r, sc.edgePos) {
				continue
			}
			if !s.mach.CallerSaved(r) && !s.usedCallee[r] {
				continue // a fresh callee-saved register would need an unplanned save
			}
			return r, true
		}
		return target.NoReg, false
	}
}

// snapsOf returns the register snapshot recorded over sp.
func (s *scan) snapsOf(sp span) []regSnap { return s.snaps[sp.lo:sp.hi] }

// filled returns buf resized to n entries, all v.
func filled[T any](buf []T, n int, v T) []T {
	buf = scratch.Grow(buf, n)
	for i := range buf {
		buf[i] = v
	}
	return buf
}
