// Package linearscan implements the original linear-scan allocator of
// Poletto, Engler and Kaashoek's `tcc` system, which §4 of the paper
// describes as related work: "scans a sorted list of the lifetimes and at
// each step considers how many lifetimes are currently active ... When
// there are too many active lifetimes to fit, the longest active lifetime
// is spilled to memory ... No attempt is made to take advantage of
// lifetime holes or to allocate partial lifetimes."
//
// Lifetimes here are flat [start, end] intervals (holes ignored), whole
// lifetimes go to a register or to memory, and references to
// memory-resident temporaries run through reserved scratch registers. An
// interval that spans a call site or a convention reference of a register
// is excluded from that register, which keeps the allocator correct in
// the presence of the calling convention.
package linearscan

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/alloc"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/target"
)

// Allocator is the Poletto-style linear-scan allocator.
type Allocator struct {
	mach  *target.Machine
	saves alloc.CalleeSaves
	loops cfg.Scratch
}

// New returns a linear-scan allocator for the machine.
func New(m *target.Machine) *Allocator { return &Allocator{mach: m} }

func init() {
	alloc.MustRegister("linearscan", func(m *target.Machine) alloc.Allocator { return New(m) })
}

// Name identifies the allocator in reports.
func (a *Allocator) Name() string { return "linear scan (Poletto)" }

var _ alloc.Allocator = (*Allocator)(nil)

type span struct {
	temp       ir.Temp
	start, end int32
	reg        target.Reg
}

// Allocate assigns whole flat intervals of p to registers with the
// furthest-end spill heuristic and rewrites p in place, with lv as its
// liveness and tm as the pipeline's phase timer (see alloc.Allocator).
func (a *Allocator) Allocate(p *ir.Proc, lv *dataflow.Liveness, tm *alloc.Timer) (*alloc.Result, error) {
	res := &alloc.Result{Proc: p}
	p.Renumber()
	tm.Mark(&res.Stats, alloc.PhaseOther)
	a.loops.ComputeLoopDepths(p)
	tm.Mark(&res.Stats, alloc.PhaseCFG)

	start := time.Now()
	lt := lifetime.Compute(p, lv)
	rb := lifetime.ComputeRegBusy(p, a.mach)
	tm.Mark(&res.Stats, alloc.PhaseLifetime)

	res.Stats.Candidates = p.NumTemps()

	scratch := alloc.PickScratch(a.mach)
	reserved := map[target.Reg]bool{
		scratch.Int[0]: true, scratch.Int[1]: true,
		scratch.Float[0]: true, scratch.Float[1]: true,
	}

	var spans []*span
	for _, iv := range lt.Intervals {
		if iv.Empty() {
			continue
		}
		spans = append(spans, &span{temp: iv.Temp, start: iv.Start(), end: iv.End(), reg: target.NoReg})
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	asn := alloc.NewAssignment(p)
	usedCallee := make([]bool, a.mach.NumRegs())

	// One active list per class, sorted by increasing end.
	var active [target.NumClasses][]*span
	expire := func(c target.Class, pos int32) {
		act := active[c]
		i := 0
		for i < len(act) && act[i].end < pos {
			i++
		}
		active[c] = act[i:]
	}
	insertActive := func(c target.Class, s *span) {
		act := active[c]
		i := sort.Search(len(act), func(i int) bool { return act[i].end > s.end })
		act = append(act, nil)
		copy(act[i+1:], act[i:])
		act[i] = s
		active[c] = act
	}

	for _, s := range spans {
		c := p.TempClass(s.temp)
		expire(c, s.start)
		// Pick a free register whose hard constraints permit the whole
		// flat interval.
		inUse := make(map[target.Reg]bool, len(active[c]))
		for _, as := range active[c] {
			if as.reg != target.NoReg {
				inUse[as.reg] = true
			}
		}
		for _, r := range a.mach.AllocOrder(c) {
			if reserved[r] || inUse[r] || !rb.FreeThrough(r, s.start, s.end) {
				continue
			}
			s.reg = r
			break
		}
		if s.reg == target.NoReg {
			// Poletto's heuristic: spill the interval that ends last —
			// the current one, or the active one with the furthest end.
			act := active[c]
			if n := len(act); n > 0 && act[n-1].end > s.end {
				victim := act[n-1]
				if victimFits(rb, victim.reg, s) {
					s.reg = victim.reg
					asn.Reg[victim.temp] = target.NoReg
					victim.reg = target.NoReg
					active[c] = act[:n-1]
				}
			}
		}
		if s.reg != target.NoReg {
			asn.Reg[s.temp] = s.reg
			if !a.mach.CallerSaved(s.reg) {
				usedCallee[s.reg] = true
			}
			insertActive(c, s)
		}
	}

	tm.Mark(&res.Stats, alloc.PhaseScan)
	frame := alloc.NewFrame(p)
	alloc.RewriteAssigned(p, a.mach, asn, frame, scratch, usedCallee)
	tm.Mark(&res.Stats, alloc.PhaseMoves)
	res.Stats.UsedCalleeSaved = a.saves.Insert(p, a.mach, usedCallee)
	res.Stats.AllocTime = time.Since(start)
	res.Stats.SpilledTemps = frame.NumSpilled()
	p.Renumber()
	res.Stats.Inserted = alloc.CountInserted(p)
	if err := alloc.CheckNoTemps(p); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name(), err)
	}
	tm.Mark(&res.Stats, alloc.PhaseOther)
	return res, nil
}

// victimFits reports whether the victim's register may hold the new span
// under the hard constraints.
func victimFits(rb *lifetime.RegBusy, r target.Reg, s *span) bool {
	return r != target.NoReg && rb.FreeThrough(r, s.start, s.end)
}
