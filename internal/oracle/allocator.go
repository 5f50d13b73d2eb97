package oracle

import (
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/target"
)

// Allocator adapts the branch-and-bound planner to the allocator
// registry. It is registered as "oracle" behind the size guard in
// Limits: procedures past the budgets still allocate correctly (the
// greedy incumbent is a valid whole-lifetime assignment), they just
// lose the optimality proof — so the oracle can sit in the full
// conformance grid without a size carve-out.
type Allocator struct {
	mach    *target.Machine
	lim     Limits
	profile *Profile
	saves   alloc.CalleeSaves
	loops   cfg.Scratch
}

// New returns an oracle allocator with DefaultLimits and static
// 10^loop-depth weights.
func New(m *target.Machine) *Allocator { return &Allocator{mach: m, lim: DefaultLimits()} }

func init() {
	alloc.MustRegister("oracle", func(m *target.Machine) alloc.Allocator { return New(m) })
}

// Name identifies the allocator in reports.
func (a *Allocator) Name() string { return "oracle (branch-and-bound)" }

// SetLimits replaces the search budgets.
func (a *Allocator) SetLimits(lim Limits) { a.lim = lim }

// SetProfile makes subsequent allocations minimize profile-weighted
// dynamic spill cost instead of the static loop-depth estimate. The
// profile must come from a run of the same program, joined by
// procedure and block name; procedures absent from the profile are
// treated as never executed (all weights zero).
func (a *Allocator) SetProfile(pf *Profile) { a.profile = pf }

var _ alloc.Allocator = (*Allocator)(nil)

// Allocate plans and rewrites p in place, with lv as its liveness and
// tm as the pipeline's phase timer (see alloc.Allocator).
func (a *Allocator) Allocate(p *ir.Proc, lv *dataflow.Liveness, tm *alloc.Timer) (*alloc.Result, error) {
	res := &alloc.Result{Proc: p}
	start := time.Now()

	plan := planProc(p, lv, a.mach, a.profile.FreqFunc(p.Name), a.lim, &a.loops)
	tm.Mark(&res.Stats, alloc.PhaseScan)

	res.Stats.Candidates = p.NumTemps()
	res.Stats.Rounds = int(plan.Nodes)

	asn := alloc.NewAssignment(p)
	copy(asn.Reg, plan.Assign)
	usedCallee := make([]bool, a.mach.NumRegs())
	frame := alloc.NewFrame(p)
	alloc.RewriteAssigned(p, a.mach, asn, frame, alloc.PickScratch(a.mach), usedCallee)
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
