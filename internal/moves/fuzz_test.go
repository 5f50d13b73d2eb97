package moves

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/target"
)

// Register numbering of the fuzzed transfer sets: 0..7 integer, 8..15
// float; 30 and 31 are the scratch registers, never an endpoint.
const (
	fuzzRegsPerClass = 8
	fuzzIntScratch   = 30
	fuzzFloatScratch = 31
)

// transferBuilder turns fuzz bytes into a transfer set of the shape
// resolution produces: each temporary has one move, load or store (a
// move may carry a consistency store from the same register), no
// register is the source of two temporaries, and no location is written
// twice.
type transferBuilder struct {
	data     []byte
	ts       []Transfer
	srcOwner map[target.Reg]ir.Temp
	dstUsed  map[target.Reg]bool
	next     ir.Temp
}

func (b *transferBuilder) byte() int {
	if len(b.data) == 0 {
		return 0
	}
	v := b.data[0]
	b.data = b.data[1:]
	return int(v)
}

// freeReg returns the first register of class c at or after start
// (cyclically) that is neither a source nor a destination yet.
func (b *transferBuilder) freeReg(c target.Class, start int) (target.Reg, bool) {
	for k := 0; k < fuzzRegsPerClass; k++ {
		r := target.Reg(int(c)*fuzzRegsPerClass + (start+k)%fuzzRegsPerClass)
		if _, src := b.srcOwner[r]; !src && !b.dstUsed[r] {
			return r, true
		}
	}
	return target.NoReg, false
}

func (b *transferBuilder) slotOf(t ir.Temp) int { return 100 + int(t) }

// add appends one transfer of a fresh temporary, plus an optional
// consistency store when src is a register.
func (b *transferBuilder) add(c target.Class, src, dst Loc, store bool) {
	t := b.next
	b.next++
	b.ts = append(b.ts, Transfer{Temp: t, Class: c, Src: src, Dst: dst})
	if src.Kind == LocReg {
		b.srcOwner[src.Reg] = t
		if store {
			b.ts = append(b.ts, Transfer{Temp: t, Class: c, Src: src, Dst: SlotLoc(b.slotOf(t))})
		}
	}
	if dst.Kind == LocReg {
		b.dstUsed[dst.Reg] = true
	}
}

// build consumes the data: each step's first byte picks a shape (chain,
// k-cycle, load, store, self transfer) and the following bytes its
// class, registers and length.
func (b *transferBuilder) build() {
	for len(b.data) > 0 {
		kind, c := b.byte()%5, target.Class(b.byte()%2)
		switch kind {
		case 0, 1: // chain (0) or k-cycle (1) of k registers
			k := 2 + b.byte()%4
			var regs []target.Reg
			for i := 0; i < k; i++ {
				r, ok := b.freeReg(c, b.byte())
				if !ok {
					break
				}
				regs = append(regs, r)
				b.dstUsed[r] = true // reserve until the transfers are added
			}
			for _, r := range regs {
				delete(b.dstUsed, r)
			}
			if len(regs) < 2 {
				continue
			}
			n := len(regs) - 1
			if kind == 1 {
				n = len(regs)
			}
			for i := 0; i < n; i++ {
				b.add(c, RegLoc(regs[i]), RegLoc(regs[(i+1)%len(regs)]), b.byte()%4 == 1)
			}
		case 2: // load
			if r, ok := b.freeReg(c, b.byte()); ok {
				b.add(c, SlotLoc(b.slotOf(b.next)), RegLoc(r), false)
			}
		case 3: // store
			if r, ok := b.freeReg(c, b.byte()); ok {
				b.add(c, RegLoc(r), SlotLoc(b.slotOf(b.next)), false)
			}
		case 4: // self transfer, dropped by both sequencers
			if r, ok := b.freeReg(c, b.byte()); ok {
				b.add(c, RegLoc(r), RegLoc(r), false)
			}
		}
	}
}

// withDuplicateDestination appends a transfer of temporary t that
// writes the destination of the first non-degenerate transfer of ts, an
// invalid set both sequencers must refuse.
func withDuplicateDestination(ts []Transfer, t ir.Temp) []Transfer {
	for _, x := range ts {
		if x.Src == x.Dst {
			continue
		}
		src := SlotLoc(100 + int(t))
		if x.Dst.Kind == LocSlot {
			src = RegLoc(29)
		}
		return append(ts, Transfer{Temp: t, Class: x.Class, Src: src, Dst: x.Dst})
	}
	return ts
}

// sequenceOutcome runs one sequencer and captures its code or its panic.
func sequenceOutcome(run func() []ir.Instr) (code []ir.Instr, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			code, panicked = nil, fmt.Sprint(r)
		}
	}()
	return run(), ""
}

// fuzzSequencer is shared by every fuzz input of one process, so stale
// bookkeeping from an earlier call (a panic included) would show up as
// a divergence.
var fuzzSequencer Sequencer

// FuzzSequenceMatchesReference: the first byte picks the scratch
// register availability of each class (bits 0 and 1) and whether to add
// a duplicate destination (bit 2); the rest builds a transfer set. The
// dense Sequencer must emit exactly the reference's instruction list, or
// panic with the reference's message.
func FuzzSequenceMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		flags := data[0]
		b := &transferBuilder{data: data[1:], srcOwner: map[target.Reg]ir.Temp{}, dstUsed: map[target.Reg]bool{}}
		b.build()
		ts := b.ts
		if flags&4 != 0 {
			ts = withDuplicateDestination(ts, b.next)
		}
		scratch := func(c target.Class) (target.Reg, bool) {
			if flags&(1<<c) == 0 {
				return target.NoReg, false
			}
			if c == target.ClassFloat {
				return fuzzFloatScratch, true
			}
			return fuzzIntScratch, true
		}
		compareSequencers(t, ts, scratch, b.slotOf)
	})
}

// compareSequencers checks the dense Sequencer, fresh and shared,
// against referenceSequence on one transfer set.
func compareSequencers(t *testing.T, ts []Transfer, scratch ScratchFunc, slotFor func(ir.Temp) int) {
	t.Helper()
	want, wantPanic := sequenceOutcome(func() []ir.Instr { return referenceSequence(ts, scratch, slotFor, tags) })
	for _, run := range []struct {
		name string
		seq  func() []ir.Instr
	}{
		{"Sequence", func() []ir.Instr { return Sequence(ts, scratch, slotFor, tags) }},
		{"shared Sequencer", func() []ir.Instr {
			fuzzSequencer.Reset()
			return fuzzSequencer.Sequence(nil, ts, scratch, slotFor, tags)
		}},
	} {
		got, gotPanic := sequenceOutcome(run.seq)
		if gotPanic != wantPanic {
			t.Fatalf("%s: panic %q, reference panic %q\ntransfers %v", run.name, gotPanic, wantPanic, ts)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s emitted\n%v\nreference emitted\n%v\ntransfers %v", run.name, got, want, ts)
		}
	}
}
