package oracle

import (
	"repro/internal/alloc"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/target"
	"repro/internal/vm"
)

// Profile is a recorded block-frequency profile: how many times each
// basic block of each procedure began executing in one reference run
// (vm.Config.CountBlocks). Block and procedure names are stable across
// Clone and dead-code elimination, so a profile recorded on the
// original program weighs the pipeline's cloned, DCE'd procedures
// exactly.
type Profile struct {
	visits map[string]map[string]int64
}

// NewProfile wraps raw visit counts (vm.Result.BlockVisits).
func NewProfile(visits map[string]map[string]int64) *Profile {
	return &Profile{visits: visits}
}

// CollectProfile executes prog once on the VM with block counting and
// returns the profile plus the full reference result (so callers reuse
// the run for differential checks instead of paying for a second one).
func CollectProfile(prog *ir.Program, mach *target.Machine, input []byte, maxSteps int64) (*Profile, *vm.Result, error) {
	res, err := vm.Run(prog, vm.Config{Mach: mach, Input: input, MaxSteps: maxSteps, CountBlocks: true})
	if err != nil {
		return nil, nil, err
	}
	return NewProfile(res.BlockVisits), res, nil
}

// Freq returns the recorded entry count of the named block, and whether
// the procedure appears in the profile at all.
func (pf *Profile) Freq(proc, block string) (int64, bool) {
	pv, ok := pf.visits[proc]
	if !ok {
		return 0, false
	}
	return pv[block], true
}

// FreqFunc returns the block-weight function for one procedure: the
// recorded frequency (0 for blocks the run never reached — spilling a
// temporary only touched by dead blocks is free, and the VM will
// measure it as free). A nil profile yields the static 10^loop-depth
// weights.
func (pf *Profile) FreqFunc(proc string) func(*ir.Block) int64 {
	if pf == nil {
		return StaticFreq
	}
	pv := pf.visits[proc]
	return func(b *ir.Block) int64 { return pv[b.Name] }
}

// OptimalCost computes the proven minimum total dynamic spill overhead
// of prog under the profile, planning each procedure as the pipeline's
// pre-allocation step (alloc.Prepare: clone, then dead-code elimination)
// leaves it, so the optimum is commensurable with what
// alloc.Pipeline-allocated programs actually execute.
// proven is false if any procedure's search exceeded lim; the returned
// cost is then only an upper bound (the best incumbent found).
func OptimalCost(prog *ir.Program, mach *target.Machine, pf *Profile, lim Limits) (cost int64, proven bool) {
	proven = true
	var sc alloc.Scratch
	var loops cfg.Scratch
	for _, p := range prog.Procs {
		in, lv := alloc.Prepare(p, &sc, nil)
		plan := planProc(in, lv, mach, pf.FreqFunc(p.Name), lim, &loops)
		cost += plan.Cost
		if !plan.Proven {
			proven = false
		}
	}
	return cost, proven
}
