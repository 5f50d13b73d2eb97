package integration

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/lifetime"
	"repro/internal/progs"
	"repro/internal/target"
)

// Property tests over random programs for the analysis substrate: these
// are the invariants the allocators rely on.

// TestPropertyLifetimeInvariants — for random programs, every temporary's
// interval has sorted disjoint segments, every reference falls on a live
// position inside the lifetime, and holes are exactly the dead gaps.
func TestPropertyLifetimeInvariants(t *testing.T) {
	for seed := int64(200); seed < 230; seed++ {
		mach := target.Alpha()
		prog := progs.Random(mach, progs.DefaultGen(seed))
		for _, p := range prog.Procs {
			p.Renumber()
			lv := dataflow.Compute(p)
			lt := lifetime.Compute(p, lv)
			for _, iv := range lt.Intervals {
				for i := range iv.Segments {
					s := iv.Segments[i]
					if s.Start > s.End {
						t.Fatalf("seed %d: inverted segment %v", seed, iv)
					}
					if i > 0 && s.Start <= iv.Segments[i-1].End+1 {
						t.Fatalf("seed %d: unmerged adjacent segments %v", seed, iv)
					}
				}
				for _, ref := range iv.Refs {
					if !iv.LiveAt(ref.Pos) {
						t.Fatalf("seed %d: reference at dead position %d of %v", seed, ref.Pos, iv)
					}
				}
				if iv.Empty() {
					continue
				}
				// LiveAt and InHoleAt partition [Start, End].
				for pos := iv.Start(); pos <= iv.End(); pos++ {
					live, hole := iv.LiveAt(pos), iv.InHoleAt(pos)
					if live == hole {
						t.Fatalf("seed %d: pos %d of %v is live=%v hole=%v", seed, pos, iv, live, hole)
					}
				}
			}
		}
	}
}

// TestPropertyLivenessConsistency — the per-position view derived from
// lifetimes agrees with block-boundary liveness: a global temporary in
// LiveIn(b) must be live at b's first position, and one in LiveOut(b)
// live at b's last position. (The converse need not hold: a definition
// at the boundary position starts a segment without boundary liveness.)
func TestPropertyLivenessConsistency(t *testing.T) {
	for seed := int64(300); seed < 320; seed++ {
		mach := target.Tiny(8, 5)
		prog := progs.Random(mach, progs.DefaultGen(seed))
		for _, p := range prog.Procs {
			p.Renumber()
			lv := dataflow.Compute(p)
			lt := lifetime.Compute(p, lv)
			for _, b := range p.Blocks {
				if len(b.Instrs) == 0 {
					continue
				}
				first := b.Instrs[0].Pos
				last := b.Instrs[len(b.Instrs)-1].Pos
				for gi, tmp := range lv.Globals {
					iv := lt.Intervals[tmp]
					if lv.LiveIn[b.Order].Contains(gi) && !iv.LiveAt(first) {
						t.Fatalf("seed %d: %s liveIn(%s) but interval dead at %d",
							seed, p.TempName(tmp), b.Name, first)
					}
					if lv.LiveOut[b.Order].Contains(gi) && !iv.LiveAt(last) {
						t.Fatalf("seed %d: %s liveOut(%s) but interval dead at %d",
							seed, p.TempName(tmp), b.Name, last)
					}
				}
			}
		}
	}
}

// TestPropertyRegBusyConservative — every explicit physical-register
// operand position is busy in the RegBusy table, and callee-saved
// registers are never busy.
func TestPropertyRegBusyConservative(t *testing.T) {
	for seed := int64(400); seed < 415; seed++ {
		mach := target.Alpha()
		prog := progs.Random(mach, progs.DefaultGen(seed))
		for _, p := range prog.Procs {
			p.Renumber()
			rb := lifetime.ComputeRegBusy(p, mach)
			for _, b := range p.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					for _, o := range in.Uses {
						if o.Kind == 2 { // KindReg
							if !rb.BusyAt(o.Reg, in.Pos) {
								t.Fatalf("seed %d: reg use at %d not busy", seed, in.Pos)
							}
						}
					}
					for _, o := range in.Defs {
						if o.Kind == 2 {
							if !rb.BusyAt(o.Reg, in.Pos) {
								t.Fatalf("seed %d: reg def at %d not busy", seed, in.Pos)
							}
						}
					}
				}
			}
			nPos := int32(p.NumInstrs())
			for _, r := range mach.CalleeSavedRegs(target.ClassInt) {
				for pos := int32(0); pos < nPos; pos++ {
					if rb.BusyAt(r, pos) {
						t.Fatalf("seed %d: callee-saved busy at %d", seed, pos)
					}
				}
			}
		}
	}
}

// TestPropertyAllocationIdempotentStats — allocating the same procedure
// twice yields identical static spill counts (the allocators are
// deterministic).
func TestPropertyAllocationIdempotentStats(t *testing.T) {
	mach := target.Tiny(6, 4)
	for seed := int64(500); seed < 512; seed++ {
		prog := progs.Random(mach, progs.DefaultGen(seed))
		for name, a := range allocators(mach) {
			c1, c2 := prog.Proc("main").Clone(), prog.Proc("main").Clone()
			c1.Renumber()
			c2.Renumber()
			r1, err1 := a.Allocate(c1, dataflow.Compute(c1), nil)
			r2, err2 := a.Allocate(c2, dataflow.Compute(c2), nil)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d %s: %v/%v", seed, name, err1, err2)
			}
			if r1.Stats.Inserted != r2.Stats.Inserted {
				t.Fatalf("seed %d %s: nondeterministic spill counts:\n%v\n%v",
					seed, name, r1.Stats.Inserted, r2.Stats.Inserted)
			}
			if r1.Proc.NumInstrs() != r2.Proc.NumInstrs() {
				t.Fatalf("seed %d %s: nondeterministic instruction count", seed, name)
			}
		}
	}
}
