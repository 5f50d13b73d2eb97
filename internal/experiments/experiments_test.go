package experiments

import (
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
)

// TestStatsAddAggregation pins the aggregation arithmetic the experiment
// harness (and the engine's Report.Totals) is built on.
func TestStatsAddAggregation(t *testing.T) {
	a := alloc.Stats{
		Candidates: 3, SpilledTemps: 1, UsedCalleeSaved: 2,
		AllocTime: 5 * time.Millisecond, InterferenceEdges: 7, Rounds: 1,
	}
	a.Inserted[ir.TagScanLoad] = 4
	b := alloc.Stats{
		Candidates: 10, SpilledTemps: 2, UsedCalleeSaved: 1,
		AllocTime: time.Millisecond, InterferenceEdges: 3, Rounds: 2,
	}
	b.Inserted[ir.TagScanLoad] = 1
	b.Inserted[ir.TagResolveMove] = 6

	sum := a
	sum.Add(b)
	if sum.Candidates != 13 || sum.SpilledTemps != 3 || sum.UsedCalleeSaved != 3 {
		t.Fatalf("scalar fields: %+v", sum)
	}
	if sum.AllocTime != 6*time.Millisecond {
		t.Fatalf("AllocTime = %v", sum.AllocTime)
	}
	if sum.InterferenceEdges != 10 || sum.Rounds != 3 {
		t.Fatalf("coloring fields: %+v", sum)
	}
	if sum.Inserted[ir.TagScanLoad] != 5 || sum.Inserted[ir.TagResolveMove] != 6 {
		t.Fatalf("Inserted: %v", sum.Inserted)
	}
	if sum.TotalSpillCode() != 11 {
		t.Fatalf("TotalSpillCode = %d", sum.TotalSpillCode())
	}
}

// TestPipelineAggregatesPerProcStats checks that the aggregate the
// harness reads from the §3 pipeline sums its per-procedure allocations.
func TestPipelineAggregatesPerProcStats(t *testing.T) {
	mach := target.Tiny(6, 4)
	prog := progs.Random(mach, progs.DefaultGen(5))
	_, agg, err := alloc.Pipeline{Mach: mach}.Program(Binpack(mach), prog)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, p := range prog.Procs {
		q := p.Clone()
		want += q.NumTemps()
	}
	// DCE may remove temps from the candidate count, so only sanity
	// bounds hold exactly; candidates must be positive and bounded by
	// the raw temp count.
	if agg.Candidates <= 0 || agg.Candidates > want {
		t.Fatalf("aggregate candidates %d outside (0,%d]", agg.Candidates, want)
	}
	if agg.AllocTime <= 0 {
		t.Fatal("aggregate AllocTime not accumulated")
	}
}

// TestRegisterSweep runs the quality curve on a narrow ladder and checks
// its normalization and monotonic-pressure properties.
func TestRegisterSweep(t *testing.T) {
	machines := []string{"wide-64", "x86-8", "tiny:4,3"}
	allocators := []string{"binpack", "coloring"}
	points, err := RegisterSweep(machines, allocators, "eqntott", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(machines)*len(allocators) {
		t.Fatalf("%d points, want %d", len(points), len(machines)*len(allocators))
	}
	byAlloc := map[string][]SweepPoint{}
	for _, p := range points {
		byAlloc[p.Allocator] = append(byAlloc[p.Allocator], p)
	}
	for name, ps := range byAlloc {
		if ps[0].Machine != "wide-64" || ps[0].RatioToWidest != 1 {
			t.Fatalf("%s: first point not normalized: %+v", name, ps[0])
		}
		if ps[0].Spill != 0 {
			t.Errorf("%s spills on wide-64: %+v", name, ps[0])
		}
		last := ps[len(ps)-1]
		// Machine records the parseable input spec, not the display name.
		if last.Machine != "tiny:4,3" {
			t.Fatalf("%s: sweep order broken: %+v", name, last)
		}
		if last.Spill == 0 || last.RatioToWidest <= 1 {
			t.Errorf("%s pays no overhead on a 4-register machine: %+v", name, last)
		}
		if last.IntRegs != 4 || last.FloatRegs != 3 {
			t.Errorf("%s: register counts wrong: %+v", name, last)
		}
	}
	if _, err := RegisterSweep(machines, allocators, "no-such-bench", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := RegisterSweep([]string{"bogus"}, allocators, "wc", 1); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := RegisterSweep(machines, []string{"bogus"}, "wc", 1); err == nil {
		t.Error("unknown allocator accepted")
	}
}

// TestSweepMachinesResolve keeps the default machine axis resolvable and
// widest-first.
func TestSweepMachinesResolve(t *testing.T) {
	names := SweepMachines()
	if len(names) < 5 {
		t.Fatalf("sweep axis too short: %v", names)
	}
	prev := 1 << 30
	for _, n := range names {
		m, err := machineByName(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		total := len(m.AllocOrder(target.ClassInt)) + len(m.AllocOrder(target.ClassFloat))
		if total > prev {
			t.Errorf("sweep axis not widest-first: %s has %d allocatable regs after %d", n, total, prev)
		}
		prev = total
	}
}

// TestAblationsSmall exercises the ablation table on one benchmark at a
// tiny scale (the §3.1/§2.5 comparison driver).
func TestAblationsSmall(t *testing.T) {
	rows, err := Ablations(target.Alpha(), []string{"wc"}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d ablation rows, want 6 variants", len(rows))
	}
	if rows[0].RatioToPaper != 1 {
		t.Fatalf("paper row not the baseline: %+v", rows[0])
	}
	for _, r := range rows {
		if r.Instrs <= 0 {
			t.Errorf("variant %q executed nothing", r.Variant)
		}
	}
}
