// Package moves sequences parallel location transfers into an equivalent
// ordered list of move/load/store instructions.
//
// The paper's resolution phase must emit, on each CFG edge, a set of
// loads, stores, and moves "in the semantically-correct order, even in
// the case where two (or more) temporaries swap their allocated
// registers" (§2.4) — the same problem as replacing SSA phi-nodes by
// moves. Each temporary has at most one transfer per edge, and its spill
// slot belongs to it alone, so the transfer graph is a set of chains plus
// simple register cycles. Chains are emitted leaf-first; cycles are
// broken either through a scratch register or through the moving
// temporary's own spill slot.
package moves

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/target"
)

// LocKind discriminates transfer endpoints.
type LocKind uint8

const (
	// LocReg is a physical register.
	LocReg LocKind = iota
	// LocSlot is a stack slot.
	LocSlot
)

// Loc is a transfer endpoint: a register or a stack slot.
type Loc struct {
	Kind LocKind
	Reg  target.Reg
	Slot int
}

// RegLoc returns a register location.
func RegLoc(r target.Reg) Loc { return Loc{Kind: LocReg, Reg: r} }

// SlotLoc returns a stack-slot location.
func SlotLoc(s int) Loc { return Loc{Kind: LocSlot, Slot: s} }

func (l Loc) String() string {
	if l.Kind == LocReg {
		return fmt.Sprintf("r%d", l.Reg)
	}
	return fmt.Sprintf("slot%d", l.Slot)
}

// Transfer moves the value of Temp from Src to Dst. Class is the
// temporary's register file (needed to pick move opcodes and scratch
// registers). Slot endpoints must be the temporary's own spill home.
type Transfer struct {
	Temp  ir.Temp
	Class target.Class
	Src   Loc
	Dst   Loc
}

// Tags selects the spill classification for emitted instructions.
type Tags struct {
	Load  ir.Tag
	Store ir.Tag
	Move  ir.Tag
}

// ScratchFunc returns a register of the given class that is dead at the
// transfer point and not an endpoint of any pending transfer, or ok=false
// if none exists (in which case cycles are broken through memory).
type ScratchFunc func(c target.Class) (target.Reg, bool)

// Sequence orders the transfers and emits the corresponding instructions
// with throwaway working storage; see Sequencer.Sequence.
func Sequence(ts []Transfer, scratch ScratchFunc, slotFor func(ir.Temp) int, tags Tags) []ir.Instr {
	return new(Sequencer).Sequence(nil, ts, scratch, slotFor, tags)
}

// Sequencer holds the pooled working storage of Sequence: dense
// per-register and per-slot source counts and destination marks, the
// pending list, and the arena emitted operands are carved from. The zero
// value is ready to use; one Sequencer serves one goroutine.
type Sequencer struct {
	regs, slots []locEntry // indexed by register and slot number
	epoch       uint32     // entries of older epochs read as empty
	pending     []Transfer
	// The operand arena is a list of chunks kept across Resets, so it
	// stops allocating once it has held the largest procedure's
	// operands; ops is the chunk being carved, and next the index of the
	// chunk after it.
	chunks [][]ir.Operand
	ops    []ir.Operand
	next   int
}

// locEntry is one location's bookkeeping within a Sequence call.
type locEntry struct {
	epoch uint32
	srcs  int32 // pending transfers reading the location
	dst   bool  // some transfer writes the location
}

// Reset empties the operand arena. Operands carved before the call are
// reused afterwards, so the caller must be done with them (the
// allocation pipeline copies each procedure out before allocating the
// next one, and binpacking resets once per procedure).
func (sq *Sequencer) Reset() { sq.ops, sq.next = nil, 0 }

// entry returns l's bookkeeping for the current call, growing the dense
// tables on demand and clearing an entry left by an earlier call.
func (sq *Sequencer) entry(l Loc) *locEntry {
	tab, i := &sq.regs, int(l.Reg)
	if l.Kind == LocSlot {
		tab, i = &sq.slots, l.Slot
	}
	if i >= len(*tab) {
		*tab = append(*tab, make([]locEntry, i+1-len(*tab))...)
	}
	e := &(*tab)[i]
	if e.epoch != sq.epoch {
		*e = locEntry{epoch: sq.epoch}
	}
	return e
}

// Operands carves n operands (at most 64), with full capacity, from the
// arena. A full chunk is followed by the next one, allocated (twice as
// large) the first time it is needed, so operands carved earlier stay
// where they are until the next Reset.
func (sq *Sequencer) Operands(n int) []ir.Operand {
	k := len(sq.ops)
	if k+n > cap(sq.ops) {
		if sq.next == len(sq.chunks) {
			sq.chunks = append(sq.chunks, make([]ir.Operand, max(2*cap(sq.ops), 64)))
		}
		sq.ops = sq.chunks[sq.next][:0]
		sq.next++
		k = 0
	}
	sq.ops = sq.ops[:k+n]
	return sq.ops[k : k+n : k+n]
}

// Sequence orders the transfers and appends the corresponding
// instructions to out. SlotFor must return the spill slot of a
// temporary; it is consulted only when a register cycle must be broken
// through memory and the cycle's chosen temporary has a slot endpoint
// already or needs its home slot. The emitted operands live in the
// Sequencer's arena until the next Reset.
func (sq *Sequencer) Sequence(out []ir.Instr, ts []Transfer, scratch ScratchFunc, slotFor func(ir.Temp) int, tags Tags) []ir.Instr {
	if len(ts) == 0 {
		return out
	}
	if sq.epoch++; sq.epoch == 0 {
		clear(sq.regs)
		clear(sq.slots)
		sq.epoch = 1
	}
	// Validate uniqueness of destinations (the allocator guarantees one
	// location holds one value and one transfer per temp), count the
	// readers of every source and drop no-op transfers.
	pending := sq.pending[:0]
	for _, t := range ts {
		if t.Src == t.Dst {
			continue
		}
		sq.entry(t.Src).srcs++
		d := sq.entry(t.Dst)
		if d.dst {
			panic(fmt.Sprintf("moves: duplicate destination %v", t.Dst))
		}
		d.dst = true
		pending = append(pending, t)
	}

	for len(pending) > 0 {
		progressed := false
		for i := 0; i < len(pending); {
			t := pending[i]
			if sq.entry(t.Dst).srcs > 0 {
				i++
				continue // destination still feeds another transfer
			}
			out = sq.emit(out, t, tags)
			sq.entry(t.Src).srcs--
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			progressed = true
		}
		if progressed || len(pending) == 0 {
			continue
		}
		// Every pending destination is also a pending source: register
		// cycles only (slots have out-degree ≤ 1 into their own temp's
		// single transfer, so they cannot appear in a cycle).
		t := pending[0]
		if t.Src.Kind != LocReg || t.Dst.Kind != LocReg {
			panic(fmt.Sprintf("moves: non-register cycle through %v -> %v", t.Src, t.Dst))
		}
		var aside Loc
		if r, ok := scratch(t.Class); ok {
			// Copy the cycle member aside, redirect its transfer.
			aside = RegLoc(r)
		} else {
			// Break through the temporary's own spill slot.
			aside = SlotLoc(slotFor(t.Temp))
		}
		out = sq.emit(out, Transfer{Temp: t.Temp, Class: t.Class, Src: t.Src, Dst: aside}, tags)
		sq.entry(t.Src).srcs--
		sq.entry(aside).srcs++
		pending[0].Src = aside
	}
	sq.pending = pending[:0]
	return out
}

// emit appends the instruction performing one transfer.
func (sq *Sequencer) emit(out []ir.Instr, t Transfer, tags Tags) []ir.Instr {
	switch {
	case t.Src.Kind == LocSlot && t.Dst.Kind == LocReg:
		ops := sq.Operands(2)
		ops[0], ops[1] = ir.RegOp(t.Dst.Reg), ir.SlotOp(t.Src.Slot, t.Temp)
		return append(out, ir.Instr{Op: ir.SpillLd, Tag: tags.Load, Defs: ops[:1:1], Uses: ops[1:]})
	case t.Src.Kind == LocReg && t.Dst.Kind == LocSlot:
		ops := sq.Operands(2)
		ops[0], ops[1] = ir.RegOp(t.Src.Reg), ir.SlotOp(t.Dst.Slot, t.Temp)
		return append(out, ir.Instr{Op: ir.SpillSt, Tag: tags.Store, Uses: ops})
	case t.Src.Kind == LocReg && t.Dst.Kind == LocReg:
		op := ir.Mov
		if t.Class == target.ClassFloat {
			op = ir.FMov
		}
		ops := sq.Operands(2)
		ops[0], ops[1] = ir.RegOp(t.Dst.Reg), ir.RegOp(t.Src.Reg)
		return append(out, ir.Instr{Op: op, Tag: tags.Move, Defs: ops[:1:1], Uses: ops[1:]})
	default:
		panic("moves: slot-to-slot transfer")
	}
}
