package lifetime

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/target"
)

// buildFigure1 reproduces the paper's Figure 1: four temporaries over the
// linear order B1 B2 B3 B4, where T1 has a hole spanning B2 (it is dead
// there after its last B2 use and redefined in B3) and T3's whole
// lifetime fits inside it.
func buildFigure1(t *testing.T) (*ir.Proc, map[string]ir.Temp) {
	t.Helper()
	b := ir.NewBuilder(target.Tiny(8, 3), 8)
	pb := b.NewProc("main")
	t1 := pb.IntTemp("T1")
	t2 := pb.IntTemp("T2")
	t3 := pb.IntTemp("T3")
	t4 := pb.IntTemp("T4")
	u := pb.IntTemp("u")

	b2 := pb.Block("B2")
	b3 := pb.Block("B3")
	b4 := pb.Block("B4")

	// B1: T2 ← .. ; T1 ← .. ; br
	pb.Ldi(t2, 2)
	pb.Ldi(t1, 1)
	c := pb.IntTemp("c")
	pb.Op2(ir.CmpLT, c, ir.TempOp(t2), ir.ImmOp(5))
	pb.Br(ir.TempOp(c), b2, b3)

	// B2: .. ← T1 ; T3 ← T2 ; T4 ← .. ; .. ← T3
	pb.StartBlock(b2)
	pb.Op2(ir.Add, u, ir.TempOp(t1), ir.ImmOp(0))
	pb.Mov(t3, ir.TempOp(t2))
	pb.Ldi(t4, 4)
	pb.Op2(ir.Add, u, ir.TempOp(t3), ir.TempOp(u))
	pb.Jmp(b4)

	// B3: T1 ← .. ; T4 ← .. ; .. ← T1
	pb.StartBlock(b3)
	pb.Ldi(t1, 10)
	pb.Ldi(t4, 40)
	pb.Op2(ir.Add, u, ir.TempOp(t1), ir.ImmOp(2))
	pb.Jmp(b4)

	// B4: .. ← T4 ; T4 ← .. ; .. ← T4
	pb.StartBlock(b4)
	v := pb.IntTemp("v")
	pb.Op2(ir.Add, v, ir.TempOp(t4), ir.TempOp(u))
	pb.Ldi(t4, 7)
	pb.Op2(ir.Add, v, ir.TempOp(v), ir.TempOp(t4))
	pb.Ret(v)

	pb.P.Renumber()
	return pb.P, map[string]ir.Temp{"T1": t1, "T2": t2, "T3": t3, "T4": t4}
}

func TestFigure1Holes(t *testing.T) {
	p, temps := buildFigure1(t)
	lv := dataflow.Compute(p)
	lt := Compute(p, lv)

	t1 := lt.Intervals[temps["T1"]]
	// T1 is live in B1..B2's first use, dead through the rest of B2
	// (it is redefined on the B3 path), live again in B3: a hole.
	if len(t1.Segments) < 2 {
		t.Fatalf("T1 should have a lifetime hole, segments: %v", t1)
	}
	t3 := lt.Intervals[temps["T3"]]
	if len(t3.Segments) != 1 {
		t.Fatalf("T3 should be one contiguous segment: %v", t3)
	}
	// T3's lifetime must fit entirely inside T1's hole (the paper's
	// point: "temporary T3 fits entirely in T1's lifetime hole").
	holeStart := t1.Segments[0].End
	holeEnd := t1.Segments[1].Start
	if !(t3.Start() > holeStart && t3.End() < holeEnd) {
		t.Fatalf("T3 %v does not fit in T1's hole (%d,%d)", t3, holeStart, holeEnd)
	}
	if !t1.InHoleAt(t3.Start()) {
		t.Fatal("InHoleAt must report T1 in a hole at T3's start")
	}
	// T4 has two separate values in B2/B3 and a redefinition in B4: the
	// block boundary creates a hole in the linear view.
	t4 := lt.Intervals[temps["T4"]]
	if len(t4.Segments) < 2 {
		t.Fatalf("T4 should have a hole: %v", t4)
	}
}

func TestIntervalInvariants(t *testing.T) {
	p, _ := buildFigure1(t)
	lv := dataflow.Compute(p)
	lt := Compute(p, lv)
	for _, iv := range lt.Intervals {
		for i := 0; i < len(iv.Segments); i++ {
			if iv.Segments[i].Start > iv.Segments[i].End {
				t.Fatalf("inverted segment in %v", iv)
			}
			if i > 0 && iv.Segments[i].Start <= iv.Segments[i-1].End+1 {
				t.Fatalf("segments not disjoint/merged in %v", iv)
			}
		}
		// Every reference lies inside the lifetime and at a live point
		// (a def may start a segment; a use always lies within one).
		for _, ref := range iv.Refs {
			if ref.Pos < iv.Start() || ref.Pos > iv.End() {
				t.Fatalf("ref at %d outside lifetime %v", ref.Pos, iv)
			}
			if !iv.LiveAt(ref.Pos) {
				t.Fatalf("ref at %d not at a live position of %v", ref.Pos, iv)
			}
		}
		// Refs sorted.
		for i := 1; i < len(iv.Refs); i++ {
			if iv.Refs[i-1].Pos >= iv.Refs[i].Pos {
				t.Fatalf("refs unsorted in %v", iv)
			}
		}
	}
}

func TestNextRefQueries(t *testing.T) {
	p, temps := buildFigure1(t)
	lv := dataflow.Compute(p)
	lt := Compute(p, lv)
	t4 := lt.Intervals[temps["T4"]]
	first := t4.Refs[0]
	if got := t4.NextRef(0); got == nil || got.Pos != first.Pos {
		t.Fatal("NextRef(0) wrong")
	}
	if got := t4.NextRefAfter(first.Pos); got == nil || got.Pos <= first.Pos {
		t.Fatal("NextRefAfter must be strictly after")
	}
	last := t4.Refs[len(t4.Refs)-1]
	if t4.NextRefAfter(last.Pos) != nil {
		t.Fatal("NextRefAfter(last) must be nil")
	}
}

func TestRegBusy(t *testing.T) {
	mach := target.Alpha()
	b := ir.NewBuilder(mach, 8)
	pb := b.NewProc("main", target.ClassInt)
	x := pb.P.Params[0]
	r := pb.IntTemp("r")
	pb.Call("f", r, ir.TempOp(x))
	pb.Ret(r)
	pb.P.Renumber()
	rb := ComputeRegBusy(pb.P, mach)

	// Find the call position.
	var callPos int32 = -1
	for _, blk := range pb.P.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == ir.Call {
				callPos = blk.Instrs[i].Pos
			}
		}
	}
	if callPos < 0 {
		t.Fatal("no call")
	}
	// Every caller-saved register is busy at the call.
	for _, reg := range mach.CallerSavedRegs(target.ClassInt) {
		if !rb.BusyAt(reg, callPos) {
			t.Fatalf("caller-saved %s not busy at call", mach.RegName(reg))
		}
	}
	// Callee-saved registers are never busy.
	for _, reg := range mach.CalleeSavedRegs(target.ClassInt) {
		for pos := int32(0); pos < int32(pb.P.NumInstrs()); pos++ {
			if rb.BusyAt(reg, pos) {
				t.Fatalf("callee-saved %s busy at %d", mach.RegName(reg), pos)
			}
		}
	}
	// The first int parameter register is busy from entry (position 0)
	// up to its use by the convention move.
	a0 := mach.ParamRegs(target.ClassInt)[0]
	if !rb.BusyAt(a0, 0) {
		t.Fatal("param register must be busy at entry")
	}
	// And free again somewhere between the param move and the arg setup.
	if rb.FreeThrough(a0, 0, callPos) {
		t.Fatal("param register cannot be free through the call")
	}
	if nb := rb.NextBusy(a0, callPos+1); nb <= callPos {
		t.Fatal("NextBusy went backwards")
	}
	checkStarts(t, rb)
}

func TestLiveAtAndEmpty(t *testing.T) {
	iv := &Interval{Temp: 0, Segments: []Segment{{2, 5}, {9, 12}}}
	for pos, want := range map[int32]bool{1: false, 2: true, 5: true, 6: false, 8: false, 9: true, 12: true, 13: false} {
		if iv.LiveAt(pos) != want {
			t.Fatalf("LiveAt(%d) = %v", pos, !want)
		}
	}
	if !iv.InHoleAt(7) || iv.InHoleAt(3) || iv.InHoleAt(0) || iv.InHoleAt(14) {
		t.Fatal("InHoleAt wrong")
	}
	empty := &Interval{Temp: 1}
	if !empty.Empty() || empty.InHoleAt(3) {
		t.Fatal("empty interval misbehaves")
	}
}
