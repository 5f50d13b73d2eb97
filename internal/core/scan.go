package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/alloc"
	"repro/internal/bitset"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/moves"
	"repro/internal/scratch"
	"repro/internal/target"
)

// scan carries the state of the single allocate+rewrite pass (§2.3).
//
// Block boundaries cost what the register file holds, not what the live
// sets hold. loc and regOcc are kept exact inverses, so the snapshot of
// the occupied registers taken at each block's top and bottom records
// every live global that is in a register there; a global absent from a
// snapshot is in memory. ARE_CONSISTENT is kept as a running bitset over
// the globals (consBits), updated wherever the scan writes loc or
// consistent of a global, so saving it at a block's bottom copies words.
// The rewritten blocks go to one pooled buffer (out); resolution writes
// the final procedure from it into another (final). Everything the
// rewritten procedure points to — those buffers, the Orig side tables,
// the operands of spill and repair code — is pooled in scanScratch until
// the next allocation.
type scan struct {
	p    *ir.Proc
	mach *target.Machine
	opts Options
	lv   *dataflow.Liveness
	lt   *lifetime.Table
	rb   *lifetime.RegBusy

	frame      *alloc.Frame
	usedCallee []bool // register → used callee-saved

	// Allocation state, maintained linearly across blocks exactly as the
	// paper's model flows it (Fig. 2 discussion).
	loc        []target.Reg // temp → current register, or NoReg (memory home)
	regOcc     []ir.Temp    // register → occupant temp, or NoTemp
	consistent []bool       // the ARE_CONSISTENT working bit per temp (At)
	consLocal  []bool       // consistency established inside the current block
	localSet   []ir.Temp    // temps whose consLocal was set in the current block
	consBits   *bitset.Set  // per global: loc == NoReg || consistent

	pinned     []bool       // registers untouchable while processing one instruction
	pinnedList []target.Reg // registers pinned for the current instruction

	// Per-block records for resolution (§2.4), indexed by Block.Order.
	// top/bot index snaps: the occupied registers holding a global live
	// into (top) or out of (bot) the block, in register order.
	snaps     []regSnap
	top, bot  []span
	body      []span        // the block's rewritten instructions in out
	savedCons []*bitset.Set // ARE_CONSISTENT snapshot at block bottom (globals)
	wrote     []*bitset.Set // WROTE_TR per block (kill)
	usedC     []*bitset.Set // USED_CONSISTENCY per block (gen)

	wroteCur *bitset.Set
	usedCCur *bitset.Set

	out []ir.Instr // rewrite buffer for every block, in layout order
	cur *ir.Block

	ubuf []ir.Temp
	dbuf []ir.Temp

	// origArena backs every instruction's OrigUses/OrigDefs side table.
	origArena []ir.Temp
	origN     int
	// seq carves the operands of spill code (and, in resolution, of
	// repair code) from its arena.
	seq *moves.Sequencer

	consSolver *dataflow.SolverScratch
}

// regSnap records that register r holds the global with index gi.
type regSnap struct {
	r  target.Reg
	gi int32
}

// span is the half-open range [lo, hi) of a pooled buffer.
type span struct{ lo, hi int32 }

// scanScratch holds the scan's per-temp, per-register and per-block
// working arrays so that repeated allocation on the same Allocator (the
// engine's batch hot path) reuses buffers instead of reallocating them
// for every procedure. The zero value is ready to use. An Allocator that
// shares a scanScratch must not be used from multiple goroutines.
type scanScratch struct {
	frame      alloc.Frame
	loc        []target.Reg
	regOcc     []ir.Temp
	consistent []bool
	consLocal  []bool
	localSet   []ir.Temp
	consBits   bitset.Set
	pinned     []bool
	pinnedList []target.Reg
	usedCallee []bool
	snaps      []regSnap
	top, bot   []span
	body       []span
	out        []ir.Instr
	origs      []ir.Temp
	final      []ir.Instr // the resolved procedure's instructions
	blockSets  bitset.Slab
	savedCons  []*bitset.Set
	wrote      []*bitset.Set
	usedC      []*bitset.Set
	wroteCur   bitset.Set
	usedCCur   bitset.Set
	ubuf, dbuf []ir.Temp

	// Resolution-phase (§2.4) working storage.
	consSolver dataflow.SolverScratch
	fixes      []edgeFix
	code       []ir.Instr
	seq        moves.Sequencer
	transfers  []moves.Transfer
	visit      []int32
	visitBits  []uint64 // per word of globals, zero outside resolveEdge
	visitWords []int32
	botLoc     []target.Reg // per global, NoReg outside resolveEdge
	topLoc     []target.Reg
	topFix     []int32 // per block, index of the fix placed at its top or -1
	botFix     []int32
	splitFix   []int32 // fix of each block SplitEdge made, in order
	busyRegs   []bool
	busyDirty  []target.Reg
	edgePos    int32 // position of the edge resolveEdge is sequencing
}

// grow is scratch.GrowCleared: every scan buffer either reaches other
// objects (arena sub-slices, bitsets) or is cheaper to re-zero than to
// audit, so the clearing variant is used throughout.
func grow[T any](buf []T, n int) []T { return scratch.GrowCleared(buf, n) }

func newScan(p *ir.Proc, mach *target.Machine, opts Options, lv *dataflow.Liveness, lt *lifetime.Table, rb *lifetime.RegBusy, sc *scanScratch) *scan {
	if sc == nil {
		sc = &scanScratch{}
	}
	nb := len(p.Blocks)
	ng := lv.NumGlobals()
	nt := p.NumTemps()
	nr := mach.NumRegs()
	sc.loc = grow(sc.loc, nt)
	sc.regOcc = grow(sc.regOcc, nr)
	sc.consistent = grow(sc.consistent, nt)
	sc.consLocal = grow(sc.consLocal, nt)
	sc.pinned = grow(sc.pinned, nr)
	sc.usedCallee = grow(sc.usedCallee, nr)
	sc.top = grow(sc.top, nb)
	sc.bot = grow(sc.bot, nb)
	sc.body = grow(sc.body, nb)
	sc.savedCons = grow(sc.savedCons, nb)
	sc.wrote = grow(sc.wrote, nb)
	sc.usedC = grow(sc.usedC, nb)
	sc.frame.Reset(p)

	// One slab allocation backs all per-block consistency sets.
	sc.blockSets.Reset(3*nb, ng)
	for i := 0; i < nb; i++ {
		sc.savedCons[i] = sc.blockSets.Set(i)
		sc.wrote[i] = sc.blockSets.Set(nb + i)
		sc.usedC[i] = sc.blockSets.Set(2*nb + i)
	}
	sc.wroteCur.Reset(ng)
	sc.usedCCur.Reset(ng)
	// Every temporary starts in memory, hence consistent.
	sc.consBits.Reset(ng)
	sc.consBits.Fill()

	// The Orig side tables come from one arena sized by the total
	// operand count.
	nOps, nInstrs := 0, 0
	for _, b := range p.Blocks {
		nInstrs += len(b.Instrs)
		for i := range b.Instrs {
			nOps += len(b.Instrs[i].Uses) + len(b.Instrs[i].Defs)
		}
	}
	if cap(sc.out) < nInstrs {
		sc.out = make([]ir.Instr, 0, nInstrs+nInstrs/4)
	}
	sc.origs = scratch.Grow(sc.origs, nOps)
	sc.seq.Reset()

	s := &scan{
		p: p, mach: mach, opts: opts, lv: lv, lt: lt, rb: rb,
		frame:      &sc.frame,
		usedCallee: sc.usedCallee,
		loc:        sc.loc,
		regOcc:     sc.regOcc,
		consistent: sc.consistent,
		consLocal:  sc.consLocal,
		localSet:   sc.localSet[:0],
		consBits:   &sc.consBits,
		pinned:     sc.pinned,
		pinnedList: sc.pinnedList[:0],
		snaps:      sc.snaps[:0],
		top:        sc.top,
		bot:        sc.bot,
		body:       sc.body,
		savedCons:  sc.savedCons,
		wrote:      sc.wrote,
		usedC:      sc.usedC,
		wroteCur:   &sc.wroteCur,
		usedCCur:   &sc.usedCCur,
		out:        sc.out[:0],
		ubuf:       sc.ubuf[:0],
		dbuf:       sc.dbuf[:0],
		origArena:  sc.origs,
		seq:        &sc.seq,
		consSolver: &sc.consSolver,
	}
	for i := range s.loc {
		s.loc[i] = target.NoReg
	}
	for i := range s.regOcc {
		s.regOcc[i] = ir.NoTemp
	}
	return s
}

// release hands the scan's (possibly regrown) buffers back to the
// scratch for the next allocation, with the rewrite buffer's references
// dropped so the pooled backing does not retain the procedure. It runs
// after resolve, or alone when the scan failed.
func (s *scan) release(sc *scanScratch) {
	if sc == nil {
		return
	}
	clear(s.out)
	sc.out = s.out[:0]
	sc.ubuf, sc.dbuf = s.ubuf, s.dbuf
	sc.pinnedList = s.pinnedList
	sc.localSet = s.localSet[:0]
	sc.snaps = s.snaps[:0]
}

// takeOrig carves an all-NoTemp side table of n entries from the
// procedure's arena.
func (s *scan) takeOrig(n int) []ir.Temp {
	a := s.origArena[s.origN : s.origN+n : s.origN+n]
	s.origN += n
	for i := range a {
		a[i] = ir.NoTemp
	}
	return a
}

func (s *scan) iv(t ir.Temp) *lifetime.Interval { return s.lt.Intervals[t] }

// run performs the combined allocate/rewrite sweep. The rewritten blocks
// stay in the rewrite buffer; resolve installs them.
func (s *scan) run() error {
	for _, b := range s.p.Blocks {
		if err := s.block(b); err != nil {
			return err
		}
	}
	return nil
}

// block allocates and rewrites one block into the rewrite buffer.
func (s *scan) block(b *ir.Block) error {
	s.cur = b
	s.startBlock(b)
	lo := len(s.out)
	for i := range b.Instrs {
		if err := s.instr(&b.Instrs[i]); err != nil {
			return fmt.Errorf("block %s, %v at pos %d: %w", b.Name, b.Instrs[i].Op, b.Instrs[i].Pos, err)
		}
	}
	s.endBlock(b)
	s.body[b.Order] = span{int32(lo), int32(len(s.out))}
	return nil
}

func (s *scan) startBlock(b *ir.Block) {
	s.wroteCur.Clear()
	s.usedCCur.Clear()
	for _, t := range s.localSet {
		s.consLocal[t] = false
	}
	s.localSet = s.localSet[:0]
	if s.opts.StrictLinear {
		// §2.6: conservatively reinitialize the working ARE_CONSISTENT
		// vector with the intersection of the saved vectors of all
		// predecessors; an unprocessed predecessor (still empty) clears
		// everything. This is the one per-block walk over the globals.
		for gi, t := range s.lv.Globals {
			val := len(b.Preds) > 0
			for _, pred := range b.Preds {
				if !s.savedCons[pred.Order].Contains(gi) {
					val = false
					break
				}
			}
			s.consistent[t] = val
			s.syncCons(t)
		}
	}
	in := s.lv.LiveIn[b.Order]
	lo := len(s.snaps)
	for r, t := range s.regOcc {
		if t == ir.NoTemp {
			continue
		}
		if gi := s.lv.Index[t]; gi >= 0 && in.Contains(int(gi)) {
			s.snaps = append(s.snaps, regSnap{target.Reg(r), gi})
		}
	}
	s.top[b.Order] = span{int32(lo), int32(len(s.snaps))}
}

func (s *scan) endBlock(b *ir.Block) {
	out := s.lv.LiveOut[b.Order]
	lo := len(s.snaps)
	for r, t := range s.regOcc {
		if t == ir.NoTemp {
			continue
		}
		gi := s.lv.Index[t]
		if gi < 0 || !out.Contains(int(gi)) {
			continue
		}
		s.snaps = append(s.snaps, regSnap{target.Reg(r), gi})
		// Soundness refinement (documented in DESIGN.md): a live-out
		// temporary whose register is believed consistent only by
		// linear inheritance may have that belief consumed by edge
		// resolution (store suppression) at this block's outgoing
		// edges. Record it in the GEN set so the dataflow demands real
		// consistency on entry, exactly as for in-block inhibitions.
		if !s.opts.StrictLinear && s.consistent[t] && !s.consLocal[t] && !s.wroteCur.Contains(int(gi)) {
			s.usedCCur.Add(int(gi))
		}
	}
	s.bot[b.Order] = span{int32(lo), int32(len(s.snaps))}

	s.savedCons[b.Order].Copy(s.consBits)
	s.wrote[b.Order].Copy(s.wroteCur)
	s.usedC[b.Order].Copy(s.usedCCur)
}

// syncCons recomputes t's bit of the running ARE_CONSISTENT vector: a
// temporary in memory is trivially consistent (its home is
// authoritative); one in a register carries its At bit.
func (s *scan) syncCons(t ir.Temp) {
	gi := s.lv.Index[t]
	if gi < 0 {
		return
	}
	if s.loc[t] == target.NoReg || s.consistent[t] {
		s.consBits.Add(int(gi))
	} else {
		s.consBits.Remove(int(gi))
	}
}

// setLocal marks t's consistency as established in the current block.
func (s *scan) setLocal(t ir.Temp) {
	if !s.consLocal[t] {
		s.consLocal[t] = true
		s.localSet = append(s.localSet, t)
	}
}

// pin marks r untouchable for the rest of the current instruction.
func (s *scan) pin(r target.Reg) {
	if !s.pinned[r] {
		s.pinned[r] = true
		s.pinnedList = append(s.pinnedList, r)
	}
}

// unpinAll releases every register pinned for the current instruction.
func (s *scan) unpinAll() {
	for _, r := range s.pinnedList {
		s.pinned[r] = false
	}
	s.pinnedList = s.pinnedList[:0]
}

// instr allocates and rewrites a single instruction. The procedure is
// the pipeline's working copy, so operands are rewritten in place and
// the Orig side tables come from the pooled arena — the instruction
// costs no allocations of its own.
func (s *scan) instr(in *ir.Instr) error {
	pos := in.Pos

	// Expire register holes (§2.5): any temporary squatting in a
	// register that a convention needs at this point is evicted first
	// (this is where temporaries leave caller-saved registers at calls).
	for r := range s.regOcc {
		if t := s.regOcc[r]; t != ir.NoTemp && s.rb.BusyAt(target.Reg(r), pos) {
			s.evict(t, pos)
		}
	}

	// Record use/def temps before any in-place rewriting, and pin the
	// registers of temporaries this instruction references so one
	// operand's reload cannot evict another operand.
	s.ubuf = in.UseTemps(s.ubuf[:0])
	s.dbuf = in.DefTemps(s.dbuf[:0])
	isMove := in.Op.IsMove()
	for _, t := range s.ubuf {
		if r := s.loc[t]; r != target.NoReg {
			s.pin(r)
		}
	}

	ni := *in
	if len(ni.Uses) > 0 {
		ni.OrigUses = s.takeOrig(len(ni.Uses))
	}
	if len(ni.Defs) > 0 {
		ni.OrigDefs = s.takeOrig(len(ni.Defs))
	}

	// Uses: every temporary read here must be in a register now.
	for ui := range ni.Uses {
		if ni.Uses[ui].Kind != ir.KindTemp {
			continue
		}
		t := ni.Uses[ui].Temp
		r, err := s.ensure(t, pos, true)
		if err != nil {
			s.unpinAll()
			return err
		}
		s.pin(r)
		ni.Uses[ui] = ir.RegOp(r)
		ni.OrigUses[ui] = t
	}

	// Free temporaries whose lifetime ends at this instruction before
	// processing definitions, so a destination can reuse the register of
	// a dying source. Unpinning the freed register lets the destination
	// take it over (sources are read before the destination is written).
	for _, t := range s.ubuf {
		if r := s.loc[t]; r != target.NoReg && s.deadAfter(t, pos) {
			s.free(t)
			s.pinned[r] = false
		}
	}

	// §2.5 move optimization: try to give the move's destination the
	// source's register when the source is done with it.
	movedDef := false
	if s.opts.MoveOpt && isMove && len(ni.Defs) == 1 && ni.Defs[0].Kind == ir.KindTemp {
		movedDef = s.tryMoveOpt(&ni, pos)
	}

	// Defs. Every register still pinned here holds a source that stays
	// live after this instruction.
	if !movedDef {
		sources := s.pinnedList
		for di := range ni.Defs {
			if ni.Defs[di].Kind != ir.KindTemp {
				continue
			}
			d := ni.Defs[di].Temp
			r := s.loc[d]
			if r == target.NoReg {
				var err error
				r, err = s.ensure(d, pos, false)
				if err != nil {
					if r = s.takeSourceReg(d, pos, sources); r == target.NoReg {
						s.unpinAll()
						return err
					}
				}
			}
			s.pin(r)
			s.markWrite(d)
			ni.Defs[di] = ir.RegOp(r)
			ni.OrigDefs[di] = d
		}
	}

	s.out = append(s.out, ni)

	// Free dying definitions (dead stores keep a point lifetime).
	for _, d := range s.dbuf {
		if s.loc[d] != target.NoReg && s.deadAfter(d, pos) {
			s.free(d)
		}
	}
	s.unpinAll()
	return nil
}

// takeSourceReg places definition d when every register of its class
// holds a source of the current instruction that stays live after it
// (two float sources on a machine with two float registers). Sources
// are read before d is written, so the lowest-priority source gives up
// its register: evicting it stores its value ahead of the instruction
// when memory is stale, and its later references reload it. It returns
// NoReg when no source of d's class is in a register.
func (s *scan) takeSourceReg(d ir.Temp, pos int32, sources []target.Reg) target.Reg {
	c := s.p.TempClass(d)
	best, bestPrio := target.NoReg, math.Inf(1)
	for _, r := range sources {
		u := s.regOcc[r]
		if !s.pinned[r] || u == ir.NoTemp || s.p.TempClass(u) != c ||
			!slices.Contains(s.ubuf, u) || slices.Contains(s.dbuf, u) {
			continue
		}
		if prio, _ := s.victimPriority(u, pos); prio < bestPrio {
			best, bestPrio = r, prio
		}
	}
	if best == target.NoReg {
		return target.NoReg
	}
	s.evict(s.regOcc[best], pos)
	s.regOcc[best] = d
	s.loc[d] = best
	s.noteReg(best)
	s.consistent[d] = false
	s.consLocal[d] = false
	s.syncCons(d)
	return best
}

// deadAfter reports whether t has no further need of a value after pos.
// End() alone is not enough at a block's final position: a temporary live
// around a back edge ends its last linear segment exactly there while its
// value is still needed by an earlier (in layout order) block, so the
// block's live-out set has the final word.
func (s *scan) deadAfter(t ir.Temp, pos int32) bool {
	if s.iv(t).End() > pos {
		return false
	}
	if gi := s.lv.GlobalIndex(t); gi >= 0 && s.lv.LiveOut[s.cur.Order].Contains(gi) {
		return false
	}
	return true
}

// tryMoveOpt implements the §2.5 coalescing check: "once we have assigned
// a register to the source of a move instruction, we check to see if that
// register has a hole starting immediately after the move's source use
// and if the lifetime of the move's destination temporary fits within
// this hole." On success the destination operand is rewritten to the
// source register and the resulting self-move is left for the peephole
// pass to delete, as in the paper. ni's use operand has already been
// rewritten, so the original source temp (if any) is read back from the
// OrigUses side table.
func (s *scan) tryMoveOpt(ni *ir.Instr, pos int32) bool {
	d := ni.Defs[0].Temp
	if s.loc[d] != target.NoReg {
		return false // destination already placed; normal path
	}
	div := s.iv(d)
	if div.Empty() {
		return false
	}
	dEnd := div.End()

	var rs target.Reg
	if t := ni.OrigUses[0]; t != ir.NoTemp {
		rs = ni.Uses[0].Reg // register the use was rewritten to
		if occ := s.regOcc[rs]; occ != ir.NoTemp {
			// The source must be finished with the register for d's
			// whole lifetime: dead, or in a hole covering [pos+1,dEnd].
			if occ != t {
				return false
			}
			if s.liveWithin(t, pos+1, dEnd) {
				return false
			}
		}
	} else if ni.Uses[0].Kind == ir.KindReg {
		// Parameter-style move from a convention register: usable when
		// the register's own hole after this use covers d's lifetime.
		rs = ni.Uses[0].Reg
		if s.regOcc[rs] != ir.NoTemp {
			return false
		}
	} else {
		return false
	}
	if !s.sufficientFrom(rs, d, pos+1) {
		return false
	}
	// Displace the parked source, if any: it is in a hole over d's whole
	// lifetime, so dropping it costs nothing (next reference is a write).
	if occ := s.regOcc[rs]; occ != ir.NoTemp {
		s.loc[occ] = target.NoReg
		s.consistent[occ] = false
		s.consLocal[occ] = false
		s.syncCons(occ)
	}
	s.regOcc[rs] = d
	s.loc[d] = rs
	s.noteReg(rs)
	s.markWrite(d)
	ni.Defs[0] = ir.RegOp(rs)
	ni.OrigDefs[0] = d
	return true
}

// liveWithin reports whether t has any live position in [from, to].
func (s *scan) liveWithin(t ir.Temp, from, to int32) bool {
	iv := s.iv(t)
	for _, seg := range iv.Segments {
		if seg.End >= from && seg.Start <= to {
			return true
		}
	}
	return false
}

// ensure places t in a register at pos, reloading from its memory home if
// withLoad and the value lives in memory (this is the second chance:
// "when encountering a later reference to this spilled temporary u, we
// must find it a register", §2.3).
func (s *scan) ensure(t ir.Temp, pos int32, withLoad bool) (target.Reg, error) {
	if r := s.loc[t]; r != target.NoReg {
		return r, nil
	}
	r, ok := s.findFree(s.p.TempClass(t), t, pos, false)
	if !ok {
		victim := s.chooseVictim(s.p.TempClass(t), pos)
		if victim == ir.NoTemp {
			return target.NoReg, fmt.Errorf("no register available for %s (all pinned)", s.p.TempName(t))
		}
		r = s.loc[victim]
		s.evict(victim, pos)
	}
	s.regOcc[r] = t
	s.loc[t] = r
	s.noteReg(r)
	if withLoad {
		ops := s.seq.Operands(2)
		ops[0], ops[1] = ir.RegOp(r), ir.SlotOp(s.frame.SlotOf(t), t)
		s.out = append(s.out, ir.Instr{
			Op:   ir.SpillLd,
			Tag:  ir.TagScanLoad,
			Pos:  pos,
			Defs: ops[:1:1],
			Uses: ops[1:],
		})
		s.consistent[t] = true
		s.setLocal(t)
	} else {
		s.consistent[t] = false
		s.consLocal[t] = false
	}
	s.syncCons(t)
	return r, nil
}

func (s *scan) noteReg(r target.Reg) {
	if !s.mach.CallerSaved(r) {
		s.usedCallee[r] = true
	}
}

// sufficientFrom reports whether register r is free over every live
// position the value of t may still need: t's live segments clipped to
// [from, End]. The paper's fitting rule is "a hole big enough to contain
// the entire lifetime" (§2.2); positions must be taken from the lifetime
// segments, not merely from [from, End] in linear order, because a value
// live around a back edge re-traverses earlier positions of its own
// segment (e.g. a loop-carried counter must not adopt a caller-saved
// register whose hole ends at the loop's call site even when that call
// lies at a smaller linear position).
func (s *scan) sufficientFrom(r target.Reg, t ir.Temp, from int32) bool {
	iv := s.iv(t)
	if iv.Empty() {
		return true
	}
	for _, seg := range iv.Segments {
		if seg.End < from {
			continue
		}
		lo := seg.Start
		if lo < from {
			lo = from
		}
		if !s.rb.FreeThrough(r, lo, seg.End) {
			return false
		}
	}
	return true
}

// fitStart returns the first position the hole-sufficiency test must
// cover for t when allocating at pos: the start of the live segment
// containing pos (any of whose positions a loop may revisit), or pos
// itself when pos falls in a lifetime hole.
func (s *scan) fitStart(t ir.Temp, pos int32) int32 {
	for _, seg := range s.iv(t).Segments {
		if seg.Start <= pos && pos <= seg.End {
			return seg.Start
		}
	}
	return pos
}

// findFree picks a free register for t at pos: the smallest sufficient
// hole (sufficiency judged over t's remaining live segments), else —
// unless sufficientOnly — the largest insufficient one (§2.2, §2.5).
// Ties among sufficient holes prefer a register that costs nothing extra
// (an already-used callee-saved over a fresh one).
func (s *scan) findFree(c target.Class, t ir.Temp, pos int32, sufficientOnly bool) (target.Reg, bool) {
	from := s.fitStart(t, pos)
	bestSuff := target.NoReg
	bestSuffNext := int32(math.MaxInt32)
	bestSuffFresh := false
	bestInsuff := target.NoReg
	bestInsuffNext := int32(-1)
	for _, r := range s.mach.AllocOrder(c) {
		if s.pinned[r] || s.regOcc[r] != ir.NoTemp || s.rb.BusyAt(r, pos) {
			continue
		}
		nb := s.rb.NextBusy(r, pos)
		if s.sufficientFrom(r, t, from) {
			fresh := !s.mach.CallerSaved(r) && !s.usedCallee[r]
			if nb < bestSuffNext || (nb == bestSuffNext && bestSuffFresh && !fresh) {
				bestSuff, bestSuffNext, bestSuffFresh = r, nb, fresh
			}
		} else if nb > bestInsuffNext {
			bestInsuff, bestInsuffNext = r, nb
		}
	}
	if bestSuff != target.NoReg {
		return bestSuff, true
	}
	if !sufficientOnly && bestInsuff != target.NoReg {
		return bestInsuff, true
	}
	return target.NoReg, false
}

// chooseVictim selects the lowest-priority occupant of a class-c register
// for eviction: priority compares "the distance to each temporary's next
// reference, weighted by the depth of the loop it occurs in" (§2.3). Ties
// prefer victims that need no spill store.
func (s *scan) chooseVictim(c target.Class, pos int32) ir.Temp {
	best := ir.NoTemp
	bestPrio := math.Inf(1)
	bestStore := true
	for _, r := range s.mach.AllocOrder(c) {
		u := s.regOcc[r]
		if u == ir.NoTemp || s.pinned[r] {
			continue
		}
		prio, needsStore := s.victimPriority(u, pos)
		if prio < bestPrio || (prio == bestPrio && bestStore && !needsStore) {
			best, bestPrio, bestStore = u, prio, needsStore
		}
	}
	return best
}

func (s *scan) victimPriority(u ir.Temp, pos int32) (prio float64, needsStore bool) {
	iv := s.iv(u)
	live := iv.LiveAt(pos)
	needsStore = live && !s.consistent[u]
	ref := iv.NextRefAfter(pos)
	if ref == nil {
		return math.Inf(-1), false // past its last reference: free win
	}
	dist := float64(ref.Pos - pos)
	if dist <= 0 {
		dist = 0.5
	}
	weight := 1.0
	if s.opts.Heuristic == HeuristicWeighted {
		d := ref.Depth
		if d > 8 {
			d = 8
		}
		weight = math.Pow(10, float64(d))
	}
	return weight / dist, needsStore
}

// free releases t's register at the end of its lifetime.
func (s *scan) free(t ir.Temp) {
	r := s.loc[t]
	if r == target.NoReg {
		return
	}
	s.regOcc[r] = ir.NoTemp
	s.loc[t] = target.NoReg
	s.consistent[t] = false
	s.consLocal[t] = false
	s.syncCons(t)
}

// markWrite records a write to t's register: memory and register diverge
// (clears At, sets Wt).
func (s *scan) markWrite(t ir.Temp) {
	s.consistent[t] = false
	s.consLocal[t] = false
	s.syncCons(t)
	if gi := s.lv.GlobalIndex(t); gi >= 0 {
		s.wroteCur.Add(gi)
	}
}

// evict removes u from its register (§2.3): silently if the value is dead
// here (lifetime hole — the next reference must be a write) or if the
// memory home is already consistent; otherwise with an early-second-chance
// move (§2.5) when a suitable free register exists, else with a spill
// store. The spill point splits u's lifetime: rewrites made so far stand,
// and only future references are affected.
func (s *scan) evict(u ir.Temp, pos int32) {
	r := s.loc[u]
	if r == target.NoReg {
		return
	}
	s.regOcc[r] = ir.NoTemp
	s.loc[u] = target.NoReg

	iv := s.iv(u)
	if !iv.LiveAt(pos) {
		// In a lifetime hole (or past the end): "a store is not needed
		// since the next reference will overwrite the current value".
		s.consistent[u] = false
		s.consLocal[u] = false
		s.syncCons(u)
		return
	}
	if s.consistent[u] {
		// Inhibit the store. If the consistency we relied on was not
		// established in this block, the dataflow must guarantee it
		// along every path: set Ut (§2.4).
		if gi := s.lv.GlobalIndex(u); gi >= 0 && !s.consLocal[u] && !s.wroteCur.Contains(gi) {
			s.usedCCur.Add(gi)
		}
		return // in memory and consistent: the ARE_CONSISTENT bit stays set
	}
	if s.opts.EarlySecondChance {
		// "It might be true at this point that some other register rs
		// now contains a hole that could contain t's remaining
		// lifetime" — move instead of store+load (§2.5). The vacated
		// register itself is pinned: it is spoken for (a convention
		// needs it, or the eviction's requester takes it).
		wasPinned := s.pinned[r]
		s.pinned[r] = true
		rs, ok := s.findFree(s.p.TempClass(u), u, pos, true)
		s.pinned[r] = wasPinned
		if ok {
			op := ir.Mov
			if s.p.TempClass(u) == target.ClassFloat {
				op = ir.FMov
			}
			ops := s.seq.Operands(2)
			ops[0], ops[1] = ir.RegOp(rs), ir.RegOp(r)
			s.out = append(s.out, ir.Instr{
				Op:   op,
				Tag:  ir.TagScanMove,
				Pos:  pos,
				Defs: ops[:1:1],
				Uses: ops[1:],
			})
			s.regOcc[rs] = u
			s.loc[u] = rs
			s.noteReg(rs)
			return // in a register and inconsistent: the bit stays clear
		}
	}
	ops := s.seq.Operands(2)
	ops[0], ops[1] = ir.RegOp(r), ir.SlotOp(s.frame.SlotOf(u), u)
	s.out = append(s.out, ir.Instr{
		Op:   ir.SpillSt,
		Tag:  ir.TagScanStore,
		Pos:  pos,
		Uses: ops,
	})
	s.consistent[u] = true
	s.setLocal(u)
	s.syncCons(u)
}
