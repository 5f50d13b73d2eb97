package regalloc_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	regalloc "repro"
	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/progs"
)

// dumpProgram renders every allocated procedure, for byte-for-byte
// determinism comparisons.
func dumpProgram(prog *regalloc.Program, mach *regalloc.Machine) string {
	var sb strings.Builder
	for _, p := range prog.Procs {
		sb.WriteString(regalloc.DumpProc(p, mach))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestRegistryBuiltins(t *testing.T) {
	have := regalloc.Algorithms()
	for _, want := range []string{"binpack", "coloring", "linearscan", "twopass"} {
		found := false
		for _, n := range have {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in %q missing from registry %v", want, have)
		}
	}
}

// countingAllocator wraps a real allocator and counts Allocate calls, to
// prove the engine routes through registered factories.
type countingAllocator struct {
	regalloc.Allocator
	calls *atomic.Int64
}

func (c *countingAllocator) Allocate(p *regalloc.Proc, lv *regalloc.Liveness, tm *regalloc.Timer) (*regalloc.Result, error) {
	c.calls.Add(1)
	return c.Allocator.Allocate(p, lv, tm)
}

var (
	registerCountingOnce sync.Once
	countingCalls        atomic.Int64
)

func TestRegistryRoundTrip(t *testing.T) {
	var err error
	registerCountingOnce.Do(func() {
		err = regalloc.Register("test-counting", func(m *regalloc.Machine) regalloc.Allocator {
			return &countingAllocator{
				Allocator: core.NewDefault(m),
				calls:     &countingCalls,
			}
		})
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}

	// Lookup via Algorithms.
	found := false
	for _, n := range regalloc.Algorithms() {
		if n == "test-counting" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered name not listed in %v", regalloc.Algorithms())
	}

	// Duplicate registration must fail.
	if err := regalloc.Register("test-counting", func(m *regalloc.Machine) regalloc.Allocator { return nil }); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	// Empty name and nil factory must fail.
	if err := regalloc.Register("", func(m *regalloc.Machine) regalloc.Allocator { return nil }); err == nil {
		t.Fatal("empty-name Register succeeded")
	}
	if err := regalloc.Register("test-nil-factory", nil); err == nil {
		t.Fatal("nil-factory Register succeeded")
	}

	// An engine resolves the custom name and drives the custom allocator.
	mach := regalloc.Alpha()
	eng, err := regalloc.New(mach, regalloc.WithAlgorithm("test-counting"))
	if err != nil {
		t.Fatal(err)
	}
	prog := progs.Named("wc").Build(mach, 1)
	before := countingCalls.Load()
	if _, _, err := eng.AllocateProgram(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	if got := countingCalls.Load() - before; got != int64(len(prog.Procs)) {
		t.Fatalf("custom allocator saw %d calls, want %d", got, len(prog.Procs))
	}
}

var registerNilOnce sync.Once

// TestNewRejectsNilAllocator checks that New builds a worker itself, so
// a factory returning a nil allocator is an error naming the algorithm
// rather than a panic in a batch's fan-out goroutine.
func TestNewRejectsNilAllocator(t *testing.T) {
	var regErr error
	registerNilOnce.Do(func() {
		regErr = regalloc.Register("test-nil-allocator", func(*regalloc.Machine) regalloc.Allocator { return nil })
	})
	if regErr != nil {
		t.Fatal(regErr)
	}
	_, err := regalloc.New(regalloc.Alpha(), regalloc.WithAlgorithm("test-nil-allocator"), regalloc.WithParallelism(4))
	if err == nil {
		t.Fatal("New accepted a factory that returns a nil allocator")
	}
	if !strings.Contains(err.Error(), "test-nil-allocator") {
		t.Fatalf("error %q does not name the algorithm", err)
	}
}

// wrappedAllocator forwards to a shipped allocator, the way an external
// allocator registered through regalloc.Register builds on one.
type wrappedAllocator struct{ inner regalloc.Allocator }

func (w wrappedAllocator) Name() string { return "wrapped " + w.inner.Name() }

func (w wrappedAllocator) Allocate(p *regalloc.Proc, lv *regalloc.Liveness, tm *regalloc.Timer) (*regalloc.Result, error) {
	return w.inner.Allocate(p, lv, tm)
}

var registerWrappedOnce sync.Once

// TestWrappedAllocatorTakesShippedPath checks that a registered wrapper
// around binpack runs the path the built-in runs: byte-identical code on
// the Table 3 modules, and under WithPhaseProfile the heap counters of
// the phases the inner allocator marks.
func TestWrappedAllocatorTakesShippedPath(t *testing.T) {
	var regErr error
	registerWrappedOnce.Do(func() {
		regErr = regalloc.Register("test-wrapped-binpack", func(m *regalloc.Machine) regalloc.Allocator {
			return wrappedAllocator{inner: core.NewDefault(m)}
		})
	})
	if regErr != nil {
		t.Fatal(regErr)
	}
	mach := regalloc.Alpha()
	ctx := context.Background()
	for _, mod := range progs.Table3Modules(mach) {
		bin, err := regalloc.New(mach, regalloc.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := regalloc.New(mach, regalloc.WithAlgorithm("test-wrapped-binpack"),
			regalloc.WithParallelism(1), regalloc.WithPhaseProfile(true))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := bin.AllocateProgram(ctx, mod.Prog)
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := wrapped.AllocateProgram(ctx, mod.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if dumpProgram(got, mach) != dumpProgram(want, mach) {
			t.Errorf("%s: wrapped binpack output differs from binpack", mod.Name)
		}
		for _, ps := range rep.PhaseStats {
			if ps.Phase == "scan" && ps.Allocs == 0 {
				t.Errorf("%s: wrapped binpack under WithPhaseProfile reports zero scan allocs", mod.Name)
			}
		}
	}
}

// TestEngineKeepsWorkersAcrossGC checks that garbage collection does not
// discard the engine's warm workers: a batch after two GC cycles
// allocates within 10% of a warm batch. Workers held in a sync.Pool fail
// this, since two cycles empty the pool and the next batch regrows every
// scratch arena.
func TestEngineKeepsWorkersAcrossGC(t *testing.T) {
	mach := regalloc.Alpha()
	mod := progs.Table3Modules(mach)[1] // twldrv.f: one large procedure
	eng, err := regalloc.New(mach, regalloc.WithVerify(false), regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	// MemStats counts exactly (it flushes every P's allocation cache),
	// unlike the sampled counters a Report carries.
	var ms runtime.MemStats
	batch := func() uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, _, err := eng.AllocateProgram(context.Background(), mod.Prog); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - before
	}
	batch() // warm up: size the worker's scratch arenas
	warm := batch()
	runtime.GC()
	runtime.GC()
	afterGC := batch()
	t.Logf("allocs per batch: warm %d, after two GCs %d", warm, afterGC)
	if float64(afterGC) > 1.1*float64(warm) {
		t.Fatalf("batch after two GCs took %d allocs, warm %d: the engine dropped its warm worker", afterGC, warm)
	}
}

// TestEngineOutputsOwnTheirStorage checks that an allocated program
// shares no storage with the engine's workers. A worker clones into,
// rewrites in and resolves into pooled arenas, and only the pipeline's
// copy-out may reach the caller. One engine allocates one program twice
// and then a different one; the first output must still print as it
// did, and as procedures run on fresh storage print. Under -race, with
// two workers, an arena shared with an output would also be a race.
func TestEngineOutputsOwnTheirStorage(t *testing.T) {
	mach := regalloc.Alpha()
	prog := progs.Table3Modules(mach)[0].Prog // cvrin.c: nine procedures of different sizes
	other := progs.Named("fpppp").Build(mach, 1)
	var want strings.Builder
	for _, p := range prog.Procs {
		res, err := alloc.Pipeline{Mach: mach, Verify: true}.Run(core.NewDefault(mach), nil, p)
		if err != nil {
			t.Fatal(err)
		}
		want.WriteString(regalloc.DumpProc(res.Proc, mach))
		want.WriteByte('\n')
	}
	ctx := context.Background()
	for _, par := range []int{1, 2} {
		eng, err := regalloc.New(mach, regalloc.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		first, _, err := eng.AllocateProgram(ctx, prog)
		if err != nil {
			t.Fatal(err)
		}
		printed := dumpProgram(first, mach)
		if printed != want.String() {
			t.Fatalf("parallelism %d: output differs from procedures run on fresh storage", par)
		}
		second, _, err := eng.AllocateProgram(ctx, prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.AllocateProgram(ctx, other); err != nil {
			t.Fatal(err)
		}
		if dumpProgram(first, mach) != printed {
			t.Errorf("parallelism %d: the first output changed after later batches on the same engine", par)
		}
		if dumpProgram(second, mach) != printed {
			t.Errorf("parallelism %d: the second output differs from the first", par)
		}
	}
}

func TestEngineUnknownAlgorithm(t *testing.T) {
	_, err := regalloc.New(regalloc.Alpha(), regalloc.WithAlgorithm("no-such-allocator"))
	if err == nil {
		t.Fatal("New accepted an unknown algorithm")
	}
	if !strings.Contains(err.Error(), "no-such-allocator") {
		t.Fatalf("error %q does not name the algorithm", err)
	}
}

func TestEngineNilMachine(t *testing.T) {
	if _, err := regalloc.New(nil); err == nil {
		t.Fatal("New accepted a nil machine")
	}
}

// TestEngineOptionApplication checks that each functional option changes
// the engine's observable behavior.
func TestEngineOptionApplication(t *testing.T) {
	mach := regalloc.Alpha()
	prog := progs.Named("wc").Build(mach, 1)

	// WithAlgorithm is reflected by Algorithm().
	eng, err := regalloc.New(mach, regalloc.WithAlgorithm("coloring"))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Algorithm() != "coloring" {
		t.Fatalf("Algorithm() = %q, want coloring", eng.Algorithm())
	}
	if eng.Machine() != mach {
		t.Fatal("Machine() does not return the construction machine")
	}

	// Defaults are the shared §3 pipeline with the verifier on, byte for
	// byte: the path the conformance grid certifies is the one served.
	defEng, err := regalloc.New(mach, regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	gotProg, rep, err := defEng.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "binpack" || rep.Machine != mach.Name || rep.Totals.Candidates == 0 {
		t.Fatalf("report header %q/%q or totals wrong", rep.Algorithm, rep.Machine)
	}
	wantProg, _, err := alloc.Pipeline{Mach: mach, Verify: true}.Program(core.NewDefault(mach), prog)
	if err != nil {
		t.Fatal(err)
	}
	if dumpProgram(gotProg, mach) != dumpProgram(wantProg, mach) {
		t.Fatal("default engine and the shared pipeline disagree")
	}

	// WithForwardStores is honored: on a spill-heavy workload the engine
	// matches the shared pipeline with forwarding on, and differs from
	// the default configuration.
	spilly := progs.Named("fpppp").Build(mach, 1)
	fwdEng, err := regalloc.New(mach, regalloc.WithForwardStores(true), regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	fwdProg, _, err := fwdEng.AllocateProgram(context.Background(), spilly)
	if err != nil {
		t.Fatal(err)
	}
	wantFwd, _, err := alloc.Pipeline{Mach: mach, Verify: true, ForwardStores: true}.Program(core.NewDefault(mach), spilly)
	if err != nil {
		t.Fatal(err)
	}
	if dumpProgram(fwdProg, mach) != dumpProgram(wantFwd, mach) {
		t.Fatal("WithForwardStores(true) disagrees with the shared pipeline")
	}
	defSpilly, _, err := defEng.AllocateProgram(context.Background(), spilly)
	if err != nil {
		t.Fatal(err)
	}
	if dumpProgram(fwdProg, mach) == dumpProgram(defSpilly, mach) {
		t.Fatal("WithForwardStores(true) had no effect")
	}
}

// TestEngineParallelDeterminism is the acceptance criterion: allocating
// the whole suite with 8 workers must produce byte-identical dumps to
// the serial run. Run under -race this also exercises the engine's
// concurrency safety.
func TestEngineParallelDeterminism(t *testing.T) {
	for _, mach := range []*regalloc.Machine{regalloc.Alpha(), regalloc.Tiny(8, 6)} {
		for _, algo := range []string{"binpack", "twopass", "coloring", "linearscan"} {
			serial, err := regalloc.New(mach, regalloc.WithAlgorithm(algo), regalloc.WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := regalloc.New(mach, regalloc.WithAlgorithm(algo), regalloc.WithParallelism(8))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range progs.Suite() {
				prog := b.Build(mach, 1)
				sProg, sRep, err := serial.AllocateProgram(context.Background(), prog)
				if err != nil {
					t.Fatalf("%s/%s/%s serial: %v", mach.Name, algo, b.Name, err)
				}
				pProg, pRep, err := parallel.AllocateProgram(context.Background(), prog)
				if err != nil {
					t.Fatalf("%s/%s/%s parallel: %v", mach.Name, algo, b.Name, err)
				}
				if ds, dp := dumpProgram(sProg, mach), dumpProgram(pProg, mach); ds != dp {
					t.Fatalf("%s/%s/%s: parallel dump differs from serial", mach.Name, algo, b.Name)
				}
				if len(sRep.Procs) != len(pRep.Procs) {
					t.Fatalf("%s/%s/%s: report row counts differ", mach.Name, algo, b.Name)
				}
				for i := range sRep.Procs {
					if sRep.Procs[i].Proc != pRep.Procs[i].Proc {
						t.Fatalf("%s/%s/%s: report order differs at %d", mach.Name, algo, b.Name, i)
					}
					if sRep.Procs[i].Stats.SpilledTemps != pRep.Procs[i].Stats.SpilledTemps {
						t.Fatalf("%s/%s/%s: stats differ for %s", mach.Name, algo, b.Name, sRep.Procs[i].Proc)
					}
				}
			}
		}
	}
}

// TestEngineParallelDeterminismRandom stresses many-proc random programs
// through one shared engine from multiple shapes.
func TestEngineParallelDeterminismRandom(t *testing.T) {
	mach := regalloc.Tiny(6, 4)
	serial, err := regalloc.New(mach, regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := regalloc.New(mach, regalloc.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 6; seed++ {
		prog := progs.Random(mach, progs.DefaultGen(seed))
		sProg, _, err := serial.AllocateProgram(context.Background(), prog)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		pProg, _, err := parallel.AllocateProgram(context.Background(), prog)
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if dumpProgram(sProg, mach) != dumpProgram(pProg, mach) {
			t.Fatalf("seed %d: parallel dump differs from serial", seed)
		}
	}

	// A many-procedure module actually saturates the worker pool. The
	// verifier runs here too: its zero-initialized-temp rule accepts
	// whole-lifetime allocations of module programs whose defs sit on
	// structurally-skippable paths (formerly a ROADMAP open item that
	// forced WithVerify(false)).
	alpha := regalloc.Alpha()
	mod := progs.BuildModule(alpha, "det-module", 16, 60, 2).Prog
	for _, algo := range []string{"binpack", "coloring"} {
		s, err := regalloc.New(alpha, regalloc.WithAlgorithm(algo),
			regalloc.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		p, err := regalloc.New(alpha, regalloc.WithAlgorithm(algo),
			regalloc.WithParallelism(8))
		if err != nil {
			t.Fatal(err)
		}
		sProg, _, err := s.AllocateProgram(context.Background(), mod)
		if err != nil {
			t.Fatalf("module serial %s: %v", algo, err)
		}
		pProg, _, err := p.AllocateProgram(context.Background(), mod)
		if err != nil {
			t.Fatalf("module parallel %s: %v", algo, err)
		}
		if dumpProgram(sProg, alpha) != dumpProgram(pProg, alpha) {
			t.Fatalf("module %s: parallel dump differs from serial", algo)
		}
	}
}

// TestVerifierAcceptsWholeLifetimeOnModules pins the fix for the ROADMAP
// open item: module programs place defs on structurally-skippable loop
// paths, and the verifier's zero-initialized-temp rule must accept the
// whole-lifetime allocators (coloring, linearscan, twopass) on them with
// verification enabled.
func TestVerifierAcceptsWholeLifetimeOnModules(t *testing.T) {
	mach := regalloc.Alpha()
	mod := progs.BuildModule(mach, "verify-module", 6, 120, 2).Prog
	for _, algo := range []string{"binpack", "twopass", "coloring", "linearscan"} {
		eng, err := regalloc.New(mach, regalloc.WithAlgorithm(algo), regalloc.WithVerify(true))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.AllocateProgram(context.Background(), mod); err != nil {
			t.Errorf("%s: verified module allocation failed: %v", algo, err)
		}
	}
}

// TestEnginePhaseStats checks the Report's phase breakdown: every run
// reports per-phase timings whose sum matches the totals, and
// WithPhaseProfile annotates phases with allocation counters.
func TestEnginePhaseStats(t *testing.T) {
	mach := regalloc.Alpha()
	prog := progs.Named("fpppp").Build(mach, 1)
	eng, err := regalloc.New(mach, regalloc.WithParallelism(1), regalloc.WithPhaseProfile(true))
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := eng.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PhaseStats) == 0 {
		t.Fatal("report has no PhaseStats")
	}
	var sumNs int64
	var share float64
	seen := map[string]bool{}
	for _, ps := range rep.PhaseStats {
		if ps.Ns < 0 {
			t.Errorf("phase %s has negative time", ps.Phase)
		}
		sumNs += ps.Ns
		share += ps.Share
		seen[ps.Phase] = true
	}
	for _, want := range []string{"cfg", "dataflow", "lifetime", "scan", "moves", "opt", "verify", "other"} {
		if !seen[want] {
			t.Errorf("phase %q missing from PhaseStats", want)
		}
	}
	if sumNs != rep.Totals.Phases.TotalNs() || sumNs <= 0 {
		t.Fatalf("phase ns sum %d disagrees with totals %d", sumNs, rep.Totals.Phases.TotalNs())
	}
	if share < 0.99 || share > 1.01 {
		t.Fatalf("phase shares sum to %v, want ~1", share)
	}
	// fpppp at scale 1 spills: the scan phase must both take time and,
	// under WithPhaseProfile, report allocation traffic somewhere.
	var allocs uint64
	for _, ps := range rep.PhaseStats {
		allocs += ps.Allocs
	}
	if allocs == 0 {
		t.Fatal("WithPhaseProfile(true) reported zero allocations across all phases")
	}
	if rep.HeapAllocs == 0 || rep.HeapBytes == 0 {
		t.Fatal("batch heap counters missing")
	}

	// Every registered allocator profiles through the pipeline's timer.
	col, err := regalloc.New(mach, regalloc.WithAlgorithm("coloring"),
		regalloc.WithParallelism(1), regalloc.WithPhaseProfile(true))
	if err != nil {
		t.Fatal(err)
	}
	_, colRep, err := col.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	var colAllocs uint64
	for _, ps := range colRep.PhaseStats {
		colAllocs += ps.Allocs
	}
	if colAllocs == 0 {
		t.Fatal("coloring under WithPhaseProfile reported zero allocs across phases")
	}

	// Without profiling, timings still arrive but alloc counters are 0.
	plain, err := regalloc.New(mach, regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	_, rep2, err := plain.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Totals.Phases.TotalNs() <= 0 {
		t.Fatal("phase timings missing without profiling")
	}
	for _, ps := range rep2.PhaseStats {
		if ps.Allocs != 0 {
			t.Fatalf("phase %s has alloc counters without WithPhaseProfile", ps.Phase)
		}
	}
}

func TestEngineContextCancellation(t *testing.T) {
	mach := regalloc.Alpha()
	prog := progs.Named("li").Build(mach, 2)
	eng, err := regalloc.New(mach, regalloc.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the batch must fail fast
	_, _, err = eng.AllocateProgram(ctx, prog)
	if err == nil {
		t.Fatal("cancelled AllocateProgram succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAlgorithmNames checks that every built-in allocator is selectable
// by its registry name and that the engine reports the name back.
func TestAlgorithmNames(t *testing.T) {
	for _, name := range []string{"binpack", "twopass", "coloring", "linearscan", "oracle"} {
		eng, err := regalloc.New(regalloc.Alpha(), regalloc.WithAlgorithm(name))
		if err != nil {
			t.Errorf("engine rejects built-in %q: %v", name, err)
			continue
		}
		if got := eng.Algorithm(); got != name {
			t.Errorf("Algorithm() = %q, want %q", got, name)
		}
	}
	eng, err := regalloc.New(regalloc.Alpha())
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Algorithm(); got != "binpack" {
		t.Errorf("default Algorithm() = %q, want binpack", got)
	}
}

func TestParseMachine(t *testing.T) {
	m, err := regalloc.ParseMachine("alpha")
	if err != nil || m.Name != "alpha" {
		t.Fatalf("ParseMachine(alpha) = %v, %v", m, err)
	}
	m, err = regalloc.ParseMachine("tiny:6,4")
	if err != nil || m.Name != "tiny(6,4)" {
		t.Fatalf("ParseMachine(tiny:6,4) = %v, %v", m, err)
	}
	for _, bad := range []string{"", "tiny:", "tiny:x,y", "vax"} {
		if _, err := regalloc.ParseMachine(bad); err == nil {
			t.Errorf("ParseMachine(%q) succeeded", bad)
		}
	}
}

// TestEngineQuickstartShape is an example-style smoke test of the
// documented quickstart flow.
func TestEngineQuickstartShape(t *testing.T) {
	mach := regalloc.Alpha()
	b := regalloc.NewBuilder(mach, 8)
	pb := b.NewProc("main")
	x := pb.IntTemp("x")
	pb.Ldi(x, 41)
	pb.Op2(regalloc.OpAdd, x, regalloc.TempOp(x), regalloc.ImmOp(1))
	pb.Ret(x)

	eng, err := regalloc.New(mach)
	if err != nil {
		t.Fatal(err)
	}
	allocated, report, err := eng.AllocateProgram(context.Background(), b.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if report.Totals.Candidates == 0 || len(report.Procs) != 1 {
		t.Fatalf("unexpected report %+v", report)
	}
	out, err := regalloc.Execute(allocated, mach, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.RetValue != 42 {
		t.Fatalf("ret = %d, want 42", out.RetValue)
	}
}
