package moves

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/target"
)

// referenceSequence is the map-based sequencer the dense Sequencer
// replaced, kept verbatim as the test oracle: the two must emit
// identical instruction lists (ops, tags and operands) on every valid
// transfer set and both panic on invalid ones.
//
// Sequence orders the transfers and emits the corresponding instructions.
// SlotFor must return the spill slot of a temporary; it is consulted only
// when a register cycle must be broken through memory and the cycle's
// chosen temporary has a slot endpoint already or needs its home slot.
func referenceSequence(ts []Transfer, scratch ScratchFunc, slotFor func(ir.Temp) int, tags Tags) []ir.Instr {
	if len(ts) == 0 {
		return nil
	}
	pending := make([]Transfer, len(ts))
	copy(pending, ts)
	// Validate uniqueness of sources and destinations: the allocator
	// guarantees one location holds one value and one transfer per temp.
	srcCount := make(map[Loc]int, len(pending))
	dstSeen := make(map[Loc]bool, len(pending))
	for _, t := range pending {
		if t.Src == t.Dst {
			continue
		}
		srcCount[t.Src]++
		if dstSeen[t.Dst] {
			panic(fmt.Sprintf("moves: duplicate destination %v", t.Dst))
		}
		dstSeen[t.Dst] = true
	}

	var out []ir.Instr
	emit := func(t Transfer) {
		switch {
		case t.Src.Kind == LocSlot && t.Dst.Kind == LocReg:
			out = append(out, ir.Instr{
				Op:   ir.SpillLd,
				Tag:  tags.Load,
				Defs: []ir.Operand{ir.RegOp(t.Dst.Reg)},
				Uses: []ir.Operand{ir.SlotOp(t.Src.Slot, t.Temp)},
			})
		case t.Src.Kind == LocReg && t.Dst.Kind == LocSlot:
			out = append(out, ir.Instr{
				Op:   ir.SpillSt,
				Tag:  tags.Store,
				Uses: []ir.Operand{ir.RegOp(t.Src.Reg), ir.SlotOp(t.Dst.Slot, t.Temp)},
			})
		case t.Src.Kind == LocReg && t.Dst.Kind == LocReg:
			op := ir.Mov
			if t.Class == target.ClassFloat {
				op = ir.FMov
			}
			out = append(out, ir.Instr{
				Op:   op,
				Tag:  tags.Move,
				Defs: []ir.Operand{ir.RegOp(t.Dst.Reg)},
				Uses: []ir.Operand{ir.RegOp(t.Src.Reg)},
			})
		default:
			panic("moves: slot-to-slot transfer")
		}
	}

	// Drop no-op transfers.
	live := pending[:0]
	for _, t := range pending {
		if t.Src != t.Dst {
			live = append(live, t)
		}
	}
	pending = live

	for len(pending) > 0 {
		progressed := false
		for i := 0; i < len(pending); {
			t := pending[i]
			if srcCount[t.Dst] > 0 {
				i++
				continue // destination still feeds another transfer
			}
			emit(t)
			srcCount[t.Src]--
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
		if r, ok := scratch(t.Class); ok {
			// Copy the cycle member aside, redirect its transfer.
			emit(Transfer{Temp: t.Temp, Class: t.Class, Src: t.Src, Dst: RegLoc(r)})
			srcCount[t.Src]--
			srcCount[RegLoc(r)]++
			pending[0].Src = RegLoc(r)
		} else {
			// Break through the temporary's own spill slot.
			slot := slotFor(t.Temp)
			emit(Transfer{Temp: t.Temp, Class: t.Class, Src: t.Src, Dst: SlotLoc(slot)})
			srcCount[t.Src]--
			srcCount[SlotLoc(slot)]++
			pending[0].Src = SlotLoc(slot)
		}
	}
	return out
}
