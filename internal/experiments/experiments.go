// Package experiments regenerates every table and figure of the paper's
// evaluation (§3): Table 1 (dynamic instruction counts and run times),
// Table 2 (spill-code percentages), Figure 3 (spill-code composition),
// Table 3 (allocation times vs. candidate counts), and the §3.1/§2.5/§2.6
// ablations. cmd/lsra-bench prints them; bench_test.go measures them.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"

	// Registry side effects: "coloring" and "linearscan" register here.
	_ "repro/internal/coloring"
	"repro/internal/ir"
	_ "repro/internal/linearscan"
	"repro/internal/progs"
	"repro/internal/target"
	"repro/internal/vm"
)

// RunBench builds one suite benchmark at the given scale, allocates it
// with the allocator through the §3 pipeline (alloc.Pipeline, verifier
// off: oracle cost would pollute timings), executes it, and returns the
// dynamic counters.
func RunBench(b *progs.Benchmark, mach *target.Machine, scale int, a alloc.Allocator) (vm.Counters, alloc.Stats, error) {
	prog := b.Build(mach, scale)
	allocd, stats, err := alloc.Pipeline{Mach: mach}.Program(a, prog)
	if err != nil {
		return vm.Counters{}, stats, err
	}
	var input []byte
	if b.Input != nil {
		input = b.Input(scale)
	}
	res, err := vm.Run(allocd, vm.Config{Mach: mach, Input: input})
	if err != nil {
		return vm.Counters{}, stats, fmt.Errorf("%s under %s: %w", b.Name, a.Name(), err)
	}
	return res.Counters, stats, nil
}

// Resolve returns a fresh allocator by registry name — the experiment
// harness selects algorithms by string, like the CLIs.
func Resolve(name string, mach *target.Machine) (alloc.Allocator, error) {
	f, ok := alloc.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown allocator %q (have %v)", name, alloc.Names())
	}
	return f(mach), nil
}

// mustResolve is Resolve for the built-in names, which are always
// registered.
func mustResolve(name string, mach *target.Machine) alloc.Allocator {
	a, err := Resolve(name, mach)
	if err != nil {
		panic(err)
	}
	return a
}

// Binpack returns the paper-configured second-chance allocator.
func Binpack(mach *target.Machine) alloc.Allocator { return mustResolve("binpack", mach) }

// TwoPass returns the traditional two-pass binpacking allocator.
func TwoPass(mach *target.Machine) alloc.Allocator { return mustResolve("twopass", mach) }

// GraphColoring returns the George–Appel allocator.
func GraphColoring(mach *target.Machine) alloc.Allocator { return mustResolve("coloring", mach) }

// Table1Row compares dynamic instruction counts and simulated cycles for
// one benchmark (larger ratios mean poorer binpacking code, as in the
// paper).
type Table1Row struct {
	Benchmark                     string
	BinpackInstrs, ColoringInstrs int64
	InstrRatio                    float64
	BinpackCycles, ColoringCycles int64
	CycleRatio                    float64
}

// Table1 regenerates Table 1 over the whole suite.
func Table1(mach *target.Machine, scaleMul float64) ([]Table1Row, error) {
	var rows []Table1Row
	for _, b := range progs.Suite() {
		scale := scaled(b.DefaultScale, scaleMul)
		cb, _, err := RunBench(b, mach, scale, Binpack(mach))
		if err != nil {
			return nil, err
		}
		cg, _, err := RunBench(b, mach, scale, GraphColoring(mach))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Benchmark:      b.Name,
			BinpackInstrs:  cb.Total,
			ColoringInstrs: cg.Total,
			InstrRatio:     ratio(cb.Total, cg.Total),
			BinpackCycles:  cb.Cycles,
			ColoringCycles: cg.Cycles,
			CycleRatio:     ratio(cb.Cycles, cg.Cycles),
		})
	}
	return rows, nil
}

// Table2Row reports the percentage of dynamic instructions that are
// allocator-inserted spill code.
type Table2Row struct {
	Benchmark                   string
	BinpackPct, ColoringPct     float64
	BinpackSpill, ColoringSpill int64
}

// Table2 regenerates Table 2.
func Table2(mach *target.Machine, scaleMul float64) ([]Table2Row, error) {
	var rows []Table2Row
	for _, b := range progs.Suite() {
		scale := scaled(b.DefaultScale, scaleMul)
		cb, _, err := RunBench(b, mach, scale, Binpack(mach))
		if err != nil {
			return nil, err
		}
		cg, _, err := RunBench(b, mach, scale, GraphColoring(mach))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Benchmark:     b.Name,
			BinpackSpill:  cb.SpillOverhead(),
			ColoringSpill: cg.SpillOverhead(),
			BinpackPct:    pct(cb.SpillOverhead(), cb.Total),
			ColoringPct:   pct(cg.SpillOverhead(), cg.Total),
		})
	}
	return rows, nil
}

// Figure3Row is the spill-code composition of one benchmark under one
// allocator, normalized to the binpacking total for that benchmark (the
// y-axis of Figure 3). Scheme is "b" (binpacking) or "c" (coloring), as
// in the figure's labels.
type Figure3Row struct {
	Benchmark string
	Scheme    string
	// Dynamic counts.
	EvictLoads, EvictStores, EvictMoves       int64
	ResolveLoads, ResolveStores, ResolveMoves int64
	// Normalized to the binpacking total spill count.
	Normalized float64
}

// Figure3Benchmarks are the spill-heavy benchmarks the figure plots.
var Figure3Benchmarks = []string{"doduc", "eqntott", "espresso", "fpppp", "sort", "m88ksim"}

// Figure3 regenerates the spill composition data behind Figure 3.
func Figure3(mach *target.Machine, scaleMul float64) ([]Figure3Row, error) {
	var rows []Figure3Row
	for _, name := range Figure3Benchmarks {
		b := progs.Named(name)
		scale := scaled(b.DefaultScale, scaleMul)
		cb, _, err := RunBench(b, mach, scale, Binpack(mach))
		if err != nil {
			return nil, err
		}
		cg, _, err := RunBench(b, mach, scale, GraphColoring(mach))
		if err != nil {
			return nil, err
		}
		base := cb.SpillOverhead()
		mk := func(scheme string, c vm.Counters) Figure3Row {
			return Figure3Row{
				Benchmark:     name,
				Scheme:        scheme,
				EvictLoads:    c.ByTag[ir.TagScanLoad],
				EvictStores:   c.ByTag[ir.TagScanStore],
				EvictMoves:    c.ByTag[ir.TagScanMove],
				ResolveLoads:  c.ByTag[ir.TagResolveLoad],
				ResolveStores: c.ByTag[ir.TagResolveStore],
				ResolveMoves:  c.ByTag[ir.TagResolveMove],
				Normalized:    ratio(c.SpillOverhead(), base),
			}
		}
		rows = append(rows, mk("b", cb), mk("c", cg))
	}
	return rows, nil
}

// Table3Row compares allocation (compile) time on one module.
type Table3Row struct {
	Module            string
	Candidates        int // average per procedure
	InterferenceEdges int // average per procedure, over all rounds
	ColoringTime      time.Duration
	BinpackTime       time.Duration
}

// Table3 regenerates Table 3: allocation-core wall-clock time for both
// allocators on modules of increasing candidate counts. Times cover only
// the allocator cores (setup excluded), as in §3.2; each measurement is
// the best of five runs, as in the paper. Every procedure goes through
// alloc.Pipeline, so the cores see the clone and liveness the engine
// hands them.
func Table3(mach *target.Machine) ([]Table3Row, error) {
	var rows []Table3Row
	for _, mod := range progs.Table3Modules(mach) {
		row := Table3Row{Module: mod.Name}
		nprocs := 0
		for _, p := range mod.Prog.Procs {
			if p.Name != "main" {
				nprocs++
			}
		}
		best := func(a alloc.Allocator) (time.Duration, alloc.Stats, error) {
			var bestT time.Duration
			var stats alloc.Stats
			var sc alloc.Scratch
			pl := alloc.Pipeline{Mach: mach}
			for rep := 0; rep < 5; rep++ {
				var total time.Duration
				var agg alloc.Stats
				for _, p := range mod.Prog.Procs {
					if p.Name == "main" {
						continue
					}
					res, err := pl.Run(a, &sc, p)
					if err != nil {
						return 0, agg, err
					}
					total += res.Stats.AllocTime
					agg.Candidates += res.Stats.Candidates
					agg.InterferenceEdges += res.Stats.InterferenceEdges
				}
				if rep == 0 || total < bestT {
					bestT = total
				}
				stats = agg
			}
			return bestT, stats, nil
		}
		gcT, gcStats, err := best(GraphColoring(mach))
		if err != nil {
			return nil, err
		}
		bpT, _, err := best(Binpack(mach))
		if err != nil {
			return nil, err
		}
		row.ColoringTime = gcT
		row.BinpackTime = bpT
		row.Candidates = gcStats.Candidates / nprocs
		row.InterferenceEdges = gcStats.InterferenceEdges / nprocs
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationRow compares dynamic instruction counts of binpacking variants
// on one benchmark.
type AblationRow struct {
	Benchmark string
	Variant   string
	Instrs    int64
	Spill     int64
	// RatioToPaper is Instrs divided by the paper-configured
	// second-chance count for the same benchmark.
	RatioToPaper float64
}

// Ablations runs the §3.1 two-pass comparison plus the §2.5/§2.6 feature
// ablations over the named benchmarks.
func Ablations(mach *target.Machine, names []string, scaleMul float64) ([]AblationRow, error) {
	variants := []struct {
		name string
		mk   func() alloc.Allocator
	}{
		{"second-chance (paper)", func() alloc.Allocator { return core.NewDefault(mach) }},
		{"two-pass (§3.1)", func() alloc.Allocator { return TwoPass(mach) }},
		{"no move optimization (§2.5)", func() alloc.Allocator {
			o := core.DefaultOptions()
			o.MoveOpt = false
			return core.New(mach, o)
		}},
		{"no early second chance (§2.5)", func() alloc.Allocator {
			o := core.DefaultOptions()
			o.EarlySecondChance = false
			return core.New(mach, o)
		}},
		{"strict linear consistency (§2.6)", func() alloc.Allocator {
			o := core.DefaultOptions()
			o.StrictLinear = true
			return core.New(mach, o)
		}},
		{"unweighted distance heuristic", func() alloc.Allocator {
			o := core.DefaultOptions()
			o.Heuristic = core.HeuristicPlainDistance
			return core.New(mach, o)
		}},
	}
	var rows []AblationRow
	for _, name := range names {
		b := progs.Named(name)
		if b == nil {
			return nil, fmt.Errorf("no benchmark %q", name)
		}
		scale := scaled(b.DefaultScale, scaleMul)
		var base int64
		for _, v := range variants {
			c, _, err := RunBench(b, mach, scale, v.mk())
			if err != nil {
				return nil, err
			}
			if base == 0 {
				base = c.Total
			}
			rows = append(rows, AblationRow{
				Benchmark:    name,
				Variant:      v.name,
				Instrs:       c.Total,
				Spill:        c.SpillOverhead(),
				RatioToPaper: ratio(c.Total, base),
			})
		}
	}
	return rows, nil
}

// SweepPoint is one (machine, allocator) measurement of the
// registers-vs-quality curve: how much dynamic overhead an allocator
// pays for a benchmark as the register file shrinks or skews.
type SweepPoint struct {
	// Machine is the machine spec as passed to RegisterSweep ("x86-8",
	// "tiny:4,3"), so every row is reproducible by feeding it back into
	// target.Parse / lsra-conform -machines.
	Machine   string  `json:"machine"`
	IntRegs   int     `json:"int_regs"`   // allocatable integer registers
	FloatRegs int     `json:"float_regs"` // allocatable float registers
	Allocator string  `json:"allocator"`
	Instrs    int64   `json:"instrs"`
	Cycles    int64   `json:"cycles"`
	Spill     int64   `json:"spill"`
	SpillPct  float64 `json:"spill_pct"`
	// RatioToWidest is Instrs normalized to the same allocator's count
	// on the first (widest) machine of the sweep — the y-axis of the
	// curve.
	RatioToWidest float64 `json:"ratio_to_widest"`
}

// RegisterSweep reproduces the paper's registers-vs-quality relationship
// across machine shapes: it runs one benchmark at a scale multiplier on
// every named machine (target presets or "tiny:<ints>,<floats>") under
// every named allocator and reports dynamic instruction counts and spill
// percentages, normalized per allocator to the first machine listed.
// Order machines widest-first so RatioToWidest reads as degradation.
func RegisterSweep(machines, allocators []string, benchName string, scaleMul float64) ([]SweepPoint, error) {
	b := progs.Named(benchName)
	if b == nil {
		return nil, fmt.Errorf("experiments: no benchmark %q", benchName)
	}
	var points []SweepPoint
	base := make(map[string]int64, len(allocators))
	for _, mname := range machines {
		mach, err := machineByName(mname)
		if err != nil {
			return nil, err
		}
		for _, aname := range allocators {
			a, err := Resolve(aname, mach)
			if err != nil {
				return nil, err
			}
			scale := scaled(b.DefaultScale, scaleMul)
			c, _, err := RunBench(b, mach, scale, a)
			if err != nil {
				return nil, fmt.Errorf("sweep %s on %s: %w", aname, mach.Name, err)
			}
			if _, ok := base[aname]; !ok {
				base[aname] = c.Total
			}
			points = append(points, SweepPoint{
				Machine:       mname,
				IntRegs:       len(mach.AllocOrder(target.ClassInt)),
				FloatRegs:     len(mach.AllocOrder(target.ClassFloat)),
				Allocator:     aname,
				Instrs:        c.Total,
				Cycles:        c.Cycles,
				Spill:         c.SpillOverhead(),
				SpillPct:      pct(c.SpillOverhead(), c.Total),
				RatioToWidest: ratio(c.Total, base[aname]),
			})
		}
	}
	return points, nil
}

// SweepMachines is the default machine axis of RegisterSweep: the
// presets plus a descending tiny ladder, widest first.
func SweepMachines() []string {
	return []string{"wide-64", "alpha", "risc-16", "int-heavy", "x86-8", "tiny:8,6", "tiny:6,4", "tiny:4,3"}
}

// machineByName resolves a sweep machine name: a preset or the
// parameterized tiny form.
func machineByName(name string) (*target.Machine, error) {
	return target.Parse(name)
}

func scaled(def int, mul float64) int {
	s := int(float64(def) * mul)
	if s < 1 {
		s = 1
	}
	return s
}

func ratio(a, b int64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return 0
	}
	return float64(a) / float64(b)
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
