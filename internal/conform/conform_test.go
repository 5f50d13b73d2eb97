package conform

import (
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
	"repro/internal/vm"
)

// TestFullGrid is the conformance matrix: every registered allocator ×
// every machine preset × every generator profile × multiple seeds, with
// zero tolerated divergences. This is the empirical form of the paper's
// implicit claim that all four allocators are semantics-preserving on
// arbitrary machine and program shapes.
func TestFullGrid(t *testing.T) {
	nSeeds := 3
	if testing.Short() {
		nSeeds = 1
	}
	g := DefaultGrid(1, nSeeds)
	if len(g.Allocators) < 4 {
		t.Fatalf("only %d allocators registered: %v", len(g.Allocators), g.Allocators)
	}
	if len(g.Machines) < 4 {
		t.Fatalf("only %d machine presets: %v", len(g.Machines), g.Machines)
	}
	if len(g.Profiles) < 6 {
		t.Fatalf("only %d generator profiles: %v", len(g.Profiles), g.Profiles)
	}
	rep := Run(g, Options{}, false)
	if rep.Cells != len(g.Allocators)*len(g.Machines)*len(g.Profiles)*nSeeds {
		t.Fatalf("ran %d cells, expected the full product", rep.Cells)
	}
	for _, d := range rep.Divergences {
		t.Errorf("divergence at %s: %s: %s (min stmts %d)", d.Cell, d.Kind, d.Detail, d.MinStmts)
	}
	if rep.Passed != rep.Cells {
		t.Fatalf("%d/%d cells passed", rep.Passed, rep.Cells)
	}
	// Every allocator must have contributed, and the spill-forcing
	// machines must actually have produced spill traffic somewhere.
	var spillOps int64
	for name, sum := range rep.ByAllocator {
		if sum.Cells == 0 {
			t.Errorf("allocator %s ran no cells", name)
		}
		spillOps += sum.SpillOps
	}
	if spillOps == 0 {
		t.Error("no spill traffic anywhere in the grid: the machine axis is not exercising pressure")
	}
}

// TestForwardStoresGrid puts the §2.4 store-to-load forwarding cleanup
// (regalloc.WithForwardStores) under conformance: every allocator ×
// machine × profile program of the grid, over two seeds, runs through
// the shared pipeline with forwarding on and must execute exactly like
// the unallocated original. Forwarding must also actually fire: some
// cell has to execute fewer instructions than the default pipeline's
// allocation of the same program.
func TestForwardStoresGrid(t *testing.T) {
	var cells, shorter int
	for _, c := range DefaultGrid(1, 2).Cells() {
		mach, err := machineFor(c.Machine)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := progs.ProfileGen(c.Profile, c.Seed)
		if err != nil {
			t.Fatal(err)
		}
		f, ok := alloc.Lookup(c.Allocator)
		if !ok {
			t.Fatalf("%s: allocator not registered", c)
		}
		prog := progs.Random(mach, cfg)
		pl := alloc.Pipeline{Mach: mach, Verify: true, ForwardStores: true}
		allocated, _, err := pl.Program(f(mach), prog)
		if err != nil {
			t.Errorf("%s: %v", c, err)
			continue
		}
		_, got, mm := Exec(prog, allocated, mach, defaultInput, defaultMaxSteps)
		if mm != nil {
			t.Errorf("%s: %s: %s", c, mm.Kind, mm.Detail)
			continue
		}
		_, plain, mm := Check(prog, mach, c.Allocator, defaultInput, defaultMaxSteps)
		if mm != nil {
			t.Errorf("%s without forwarding: %s: %s", c, mm.Kind, mm.Detail)
			continue
		}
		cells++
		if got.Counters.Total < plain.Counters.Total {
			shorter++
		}
	}
	if cells == 0 || shorter == 0 {
		t.Fatalf("forwarding shortened %d of %d conforming cells; want at least one", shorter, cells)
	}
	t.Logf("forwarding shortened %d of %d cells", shorter, cells)
}

// TestCheckCellReportsCounters spot-checks a single high-pressure cell's
// dynamic accounting.
func TestCheckCellReportsCounters(t *testing.T) {
	res := CheckCell(Cell{Allocator: "binpack", Machine: "tiny", Profile: "high-pressure", Seed: 7}, Options{})
	if !res.OK {
		t.Fatalf("cell diverged: %+v", res.Divergence)
	}
	if res.RefInstrs == 0 || res.AllocInstrs == 0 {
		t.Fatalf("missing dynamic counts: %+v", res)
	}
	if res.AllocInstrs < res.RefInstrs {
		// DCE and peephole can shrink the program, but a high-pressure
		// profile on a six-register machine must spill.
		t.Logf("allocated run shorter than reference (%d < %d) — ok, but unusual", res.AllocInstrs, res.RefInstrs)
	}
	if res.SpillOps == 0 {
		t.Error("high-pressure profile on tiny produced no spill traffic")
	}
}

// TestDiffCatchesDivergence feeds Diff hand-built results and checks
// every mismatch kind fires.
func TestDiffCatchesDivergence(t *testing.T) {
	base := func() (*vm.Result, *vm.Result) {
		mk := func() *vm.Result {
			return &vm.Result{
				Output:   []byte("out"),
				RetValue: 7,
				Mem:      []uint64{1, 2, 3},
				Counters: vm.Counters{Total: 10, ByTag: [ir.NumTags]int64{10}},
			}
		}
		return mk(), mk()
	}
	if ref, got := base(); Diff(ref, got) != nil {
		t.Fatal("identical results reported divergent")
	}
	ref, got := base()
	got.Output = []byte("other")
	if mm := Diff(ref, got); mm == nil || mm.Kind != KindOutput {
		t.Errorf("output divergence: %+v", mm)
	}
	ref, got = base()
	got.RetValue = 8
	if mm := Diff(ref, got); mm == nil || mm.Kind != KindRetValue {
		t.Errorf("retval divergence: %+v", mm)
	}
	ref, got = base()
	got.Mem[1] = 99
	if mm := Diff(ref, got); mm == nil || mm.Kind != KindMemory {
		t.Errorf("memory divergence: %+v", mm)
	}
	ref, got = base()
	got.Mem = got.Mem[:2]
	if mm := Diff(ref, got); mm == nil || mm.Kind != KindMemory {
		t.Errorf("memory size divergence: %+v", mm)
	}
	// Counter insanity: untagged work exceeding the reference.
	ref, got = base()
	got.Counters.Total = 20
	got.Counters.ByTag[ir.TagNone] = 20
	if mm := Diff(ref, got); mm == nil || mm.Kind != KindCounters {
		t.Errorf("invented-work divergence: %+v", mm)
	}
	// Tag histogram not summing to the total.
	ref, got = base()
	got.Counters.ByTag[ir.TagNone] = 5
	if mm := Diff(ref, got); mm == nil || mm.Kind != KindCounters {
		t.Errorf("histogram divergence: %+v", mm)
	}
	// Runaway allocated code.
	ref, got = base()
	got.Counters.Total = countersBoundFactor*10 + 2000
	got.Counters.ByTag[ir.TagNone] = 10
	got.Counters.ByTag[ir.TagScanLoad] = got.Counters.Total - 10
	if mm := Diff(ref, got); mm == nil || mm.Kind != KindCounters {
		t.Errorf("runaway divergence: %+v", mm)
	}
}

// TestCheckCatchesMiscompiledProgram plants a real miscompilation — an
// "allocator" output computing the wrong value — and checks the harness
// reports it rather than only testing the happy path.
func TestCheckCatchesMiscompiledProgram(t *testing.T) {
	mach := target.Tiny(6, 4)
	build := func(v int64) *ir.Program {
		b := ir.NewBuilder(mach, 8)
		pb := b.NewProc("main")
		x := pb.IntTemp("x")
		pb.Ldi(x, v)
		pb.St(ir.TempOp(x), ir.ImmOp(0), 3)
		pb.Call("puti", ir.NoTemp, ir.TempOp(x))
		pb.Ret(x)
		return b.Prog
	}
	ref := build(41)
	// A structurally valid "allocation" of the wrong source program: the
	// conformance check must flag it even though it verifies in isolation.
	wrong, _, err := Allocate(build(42), mach, "binpack")
	if err != nil {
		t.Fatal(err)
	}
	_, _, mm := Exec(ref, wrong, mach, nil, 0)
	if mm == nil {
		t.Fatal("miscompiled program passed conformance")
	}
	if mm.Kind != KindOutput {
		t.Fatalf("mismatch kind = %s, want %s first (output precedes retval/memory)", mm.Kind, KindOutput)
	}
}

// TestFailFastAndShrink checks the driver plumbing on a grid that is
// guaranteed to fail: an unknown allocator name in every cell.
func TestFailFastAndShrink(t *testing.T) {
	g := Grid{
		Allocators: []string{"no-such-allocator"},
		Machines:   []string{"tiny"},
		Profiles:   []string{"default", "straightline"},
		Seeds:      []int64{1, 2, 3},
	}
	rep := Run(g, Options{FailFast: true, Parallelism: 1}, true)
	if len(rep.Divergences) == 0 {
		t.Fatal("bogus allocator produced no divergence")
	}
	if rep.Passed+rep.Skipped+len(rep.Divergences) != rep.Cells {
		t.Fatalf("cells %d, passed %d, skipped %d, divergent %d don't add up",
			rep.Cells, rep.Passed, rep.Skipped, len(rep.Divergences))
	}
	if rep.Passed != 0 {
		t.Fatalf("%d unexecuted cells reported as passing", rep.Passed)
	}
	if len(rep.Results) != rep.Cells {
		t.Fatalf("keepCells kept %d of %d results", len(rep.Results), rep.Cells)
	}
	if got := rep.Divergences[0]; got.Kind != KindConfigError || !strings.Contains(got.Detail, "no-such-allocator") {
		t.Fatalf("divergence = %+v", got)
	}
	if rep.Divergences[0].MinStmts != 0 {
		t.Fatalf("config error was shrunk: min_stmts = %d", rep.Divergences[0].MinStmts)
	}
	// FailFast with one worker must leave later cells unscheduled, and
	// they must be reported as skipped, not passing.
	if rep.Skipped == 0 {
		t.Error("fail-fast did not skip any cells")
	}
	for _, r := range rep.Results {
		if r.Skipped && (r.OK || r.Divergence != nil || r.RefInstrs != 0) {
			t.Fatalf("skipped cell carries results: %+v", r)
		}
	}
}

// TestMachineFor covers the tiny:<i>,<f> escape hatch on the machine
// axis.
func TestMachineFor(t *testing.T) {
	m, err := machineFor("tiny:5,3")
	if err != nil || m.NumRegs() != 8 {
		t.Fatalf("machineFor(tiny:5,3) = %v, %v", m, err)
	}
	if _, err := machineFor("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := machineFor("bogus"); err == nil {
		t.Fatal("bogus machine accepted")
	}
}

// TestGridOrderDeterministic pins the cell enumeration order the JSON
// reports and seeds rely on.
func TestGridOrderDeterministic(t *testing.T) {
	g := Grid{Allocators: []string{"a", "b"}, Machines: []string{"m"}, Profiles: []string{"p", "q"}, Seeds: []int64{1, 2}}
	cells := g.Cells()
	want := []string{"a/m/p/seed=1", "a/m/p/seed=2", "a/m/q/seed=1", "a/m/q/seed=2",
		"b/m/p/seed=1", "b/m/p/seed=2", "b/m/q/seed=1", "b/m/q/seed=2"}
	if len(cells) != len(want) {
		t.Fatalf("%d cells", len(cells))
	}
	for i := range want {
		if cells[i].String() != want[i] {
			t.Fatalf("cell %d = %s, want %s", i, cells[i], want[i])
		}
	}
}

// TestAllocateRejectsUnknown keeps the registry error path honest.
func TestAllocateRejectsUnknown(t *testing.T) {
	mach := target.Tiny(6, 4)
	prog := progs.Random(mach, progs.DefaultGen(1))
	if _, _, err := Allocate(prog, mach, "nope"); err == nil {
		t.Fatal("unknown allocator accepted")
	}
	if _, ok := alloc.Lookup("binpack"); !ok {
		t.Fatal("binpack not registered")
	}
}
