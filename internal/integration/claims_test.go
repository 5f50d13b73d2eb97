package integration

import (
	"math"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/experiments"
	"repro/internal/progs"
	"repro/internal/target"
)

// These tests pin the paper's qualitative claims so that refactoring the
// allocators cannot silently regress the reproduction. They run the
// actual experiment harness at reduced scale.

// TestClaimQualityNearColoring — Table 1's headline — binpacking's
// dynamic instruction counts stay close to coloring's on the non-fpppp
// suite (the paper's ratios range 1.000–1.131 there).
func TestClaimQualityNearColoring(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	mach := target.Alpha()
	rows, err := experiments.Table1(mach, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Benchmark == "fpppp" {
			continue // documented deviation (EXPERIMENTS.md)
		}
		if r.InstrRatio > 1.25 || r.InstrRatio < 0.85 {
			t.Errorf("%s: binpack/coloring ratio %.3f outside the near-parity band",
				r.Benchmark, r.InstrRatio)
		}
	}
}

// TestClaimSpillFreeBenchmarks — Table 2 — the benchmarks the paper
// reports as spill-free stay spill-free under both allocators (wc is
// near-zero in our phase-structured variant).
func TestClaimSpillFreeBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	mach := target.Alpha()
	rows, err := experiments.Table2(mach, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		b := progs.Named(r.Benchmark)
		if !b.SpillFree || r.Benchmark == "wc" {
			continue
		}
		if r.BinpackSpill != 0 {
			t.Errorf("%s: binpack spill %d, expected none", r.Benchmark, r.BinpackSpill)
		}
		if r.ColoringSpill != 0 {
			t.Errorf("%s: coloring spill %d, expected none", r.Benchmark, r.ColoringSpill)
		}
	}
}

// TestClaimTwoPassCollapsesOnWC — §3.1 — two-pass binpacking is far worse
// on wc (paper: +38%; we accept 1.2–1.6×) and identical on eqntott.
func TestClaimTwoPassCollapsesOnWC(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	mach := target.Alpha()
	rows, err := experiments.Ablations(mach, []string{"wc", "eqntott"}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	get := func(bench, variant string) *experiments.AblationRow {
		for i := range rows {
			if rows[i].Benchmark == bench && rows[i].Variant == variant {
				return &rows[i]
			}
		}
		t.Fatalf("missing row %s/%s", bench, variant)
		return nil
	}
	wc := get("wc", "two-pass (§3.1)")
	if wc.RatioToPaper < 1.2 || wc.RatioToPaper > 1.6 {
		t.Errorf("wc two-pass ratio %.3f outside [1.2,1.6] (paper: 1.38)", wc.RatioToPaper)
	}
	eq := get("eqntott", "two-pass (§3.1)")
	if eq.RatioToPaper != 1.0 {
		t.Errorf("eqntott two-pass ratio %.3f, want exactly 1.0", eq.RatioToPaper)
	}
}

// TestClaimEarlySecondChanceMatters — §2.5 — removing early second chance
// must hurt wc substantially (the phase transition becomes stores plus
// per-iteration reloads).
func TestClaimEarlySecondChanceMatters(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	mach := target.Alpha()
	rows, err := experiments.Ablations(mach, []string{"wc"}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Variant == "no early second chance (§2.5)" && r.RatioToPaper < 1.2 {
			t.Errorf("disabling early second chance only costs %.3f× on wc", r.RatioToPaper)
		}
	}
}

// TestClaimMoveOptMatters — §2.5 — removing move optimization must hurt
// the call-intensive li workload (parameter moves survive).
func TestClaimMoveOptMatters(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	mach := target.Alpha()
	rows, err := experiments.Ablations(mach, []string{"li"}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Variant == "no move optimization (§2.5)" && r.RatioToPaper < 1.05 {
			t.Errorf("disabling move optimization only costs %.3f× on li", r.RatioToPaper)
		}
	}
}

// TestClaimColoringDegradesOnLargeModules — Table 3 — coloring's
// allocation time grows far faster than binpacking's between the small
// and the large module. Each time is the fastest of several runs, since
// load on the machine only ever adds to a wall-clock sample; a single
// sample of the small modules (a few hundred microseconds for
// binpacking) can otherwise swing either growth by several times.
func TestClaimColoringDegradesOnLargeModules(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment harness")
	}
	mach := target.Alpha()
	small := progs.BuildModule(mach, "small", 4, 250, 1)
	large := progs.BuildModule(mach, "large", 1, 5000, 2)

	const runs = 3
	timeFor := func(mod *progs.Module, coloring bool) float64 {
		a := experiments.Binpack(mach)
		if coloring {
			a = experiments.GraphColoring(mach)
		}
		best := math.Inf(1)
		for range runs {
			var total float64
			for _, p := range mod.Prog.Procs {
				if p.Name == "main" {
					continue
				}
				c := p.Clone()
				c.Renumber()
				res, err := a.Allocate(c, dataflow.Compute(c), nil)
				if err != nil {
					t.Fatal(err)
				}
				total += res.Stats.AllocTime.Seconds()
			}
			best = min(best, total)
		}
		return best
	}
	gcGrowth := timeFor(large, true) / timeFor(small, true)
	bpGrowth := timeFor(large, false) / timeFor(small, false)
	t.Logf("small → large growth: coloring %.1f×, binpacking %.1f×", gcGrowth, bpGrowth)
	if gcGrowth < 2*bpGrowth {
		t.Errorf("coloring growth %.1f× not clearly worse than binpacking growth %.1f×",
			gcGrowth, bpGrowth)
	}
}

// TestClaimColoringHasNoResolveCode — Figure 3's structural property —
// coloring never emits resolution-tagged instructions; only the linear
// allocator needs edge repair.
func TestClaimColoringHasNoResolveCode(t *testing.T) {
	mach := target.Alpha()
	for _, name := range experiments.Figure3Benchmarks {
		b := progs.Named(name)
		c, _, err := experiments.RunBench(b, mach, 1, experiments.GraphColoring(mach))
		if err != nil {
			t.Fatal(err)
		}
		if c.ByTag[4]+c.ByTag[5]+c.ByTag[6] != 0 { // resolve load/store/move
			t.Errorf("%s: coloring produced resolution code", name)
		}
	}
}
