package alloc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
)

// diffLiveness describes the first difference between two liveness
// results of one procedure, or returns "" when they are equal.
func diffLiveness(p *ir.Proc, got, want *dataflow.Liveness) string {
	if len(got.Globals) != len(want.Globals) {
		return fmt.Sprintf("%d globals, want %d", len(got.Globals), len(want.Globals))
	}
	for i := range want.Globals {
		if got.Globals[i] != want.Globals[i] {
			return fmt.Sprintf("global %d is t%d, want t%d", i, got.Globals[i], want.Globals[i])
		}
	}
	if len(got.Index) != len(want.Index) {
		return fmt.Sprintf("index over %d temps, want %d", len(got.Index), len(want.Index))
	}
	for t := range want.Index {
		if got.Index[t] != want.Index[t] {
			return fmt.Sprintf("index of t%d is %d, want %d", t, got.Index[t], want.Index[t])
		}
	}
	if len(got.LiveIn) != len(p.Blocks) || len(got.LiveOut) != len(p.Blocks) {
		return fmt.Sprintf("%d/%d live sets for %d blocks", len(got.LiveIn), len(got.LiveOut), len(p.Blocks))
	}
	for _, b := range p.Blocks {
		if !got.LiveIn[b.Order].Equal(want.LiveIn[b.Order]) {
			return fmt.Sprintf("block %s: live-in %v, want %v", b.Name, got.LiveIn[b.Order], want.LiveIn[b.Order])
		}
		if !got.LiveOut[b.Order].Equal(want.LiveOut[b.Order]) {
			return fmt.Sprintf("block %s: live-out %v, want %v", b.Name, got.LiveOut[b.Order], want.LiveOut[b.Order])
		}
	}
	return ""
}

// TestPrepareHandsOverLiveness checks the hand-over the pipeline relies
// on: over the golden corpus, the liveness Prepare returns from one
// shared Scratch equals a fresh computation on the procedure as the
// allocator sees it, after its own Renumber and loop-depth analysis.
func TestPrepareHandsOverLiveness(t *testing.T) {
	for _, machName := range []string{"alpha", "x86-8", "tiny:4,2"} {
		mach, err := target.Parse(machName)
		if err != nil {
			t.Fatal(err)
		}
		var sc Scratch
		var loops cfg.Scratch
		names, ps := progs.GoldenCorpus(mach)
		for i, prog := range ps {
			for _, orig := range prog.Procs {
				p, lv := Prepare(orig, &sc, nil)
				p.Renumber()
				loops.ComputeLoopDepths(p)
				if d := diffLiveness(p, lv, dataflow.Compute(p)); d != "" {
					t.Fatalf("%s %s %s: handed-over liveness differs: %s", machName, names[i], orig.Name, d)
				}
			}
		}
	}
}

// TestDCEScratchReuse runs Prepare, the clone and dead-code elimination,
// on one scratch over procedures of very different sizes, large ones
// that lose code among them, and checks every result against fresh
// storage: the printed procedure, the removed count and the liveness.
// Stale clone, live, keep or index state left by a larger procedure
// would show here.
func TestDCEScratchReuse(t *testing.T) {
	mach := target.Alpha()
	hp, err := progs.ProfileGen("high-pressure", 3)
	if err != nil {
		t.Fatal(err)
	}
	mods := progs.Table3Modules(mach)
	var seq []*ir.Proc
	for _, prog := range []*ir.Program{
		mods[1].Prog, // twldrv.f: one huge procedure, nothing dead
		progs.Named("wc").Build(mach, 1),
		progs.Random(mach, hp), // large procedures that lose code
		progs.Named("alvinn").Build(mach, 1),
		mods[2].Prog, // fpppp.f
		progs.Displacement(mach),
		progs.Random(mach, hp),
	} {
		seq = append(seq, prog.Procs...)
	}
	pr := ir.Printer{Mach: mach}
	print := func(p *ir.Proc) string {
		var sb strings.Builder
		pr.WriteProc(&sb, p)
		return sb.String()
	}
	var shared Scratch
	lost := 0
	for i, orig := range seq {
		got, lv := Prepare(orig, &shared, nil)
		want, wantLv := Prepare(orig, new(Scratch), nil)
		n, wantN := orig.NumInstrs()-got.NumInstrs(), orig.NumInstrs()-want.NumInstrs()
		if n != wantN {
			t.Fatalf("proc %d (%s): shared scratch removed %d, fresh %d", i, orig.Name, n, wantN)
		}
		if g, w := print(got), print(want); g != w {
			t.Fatalf("proc %d (%s): shared scratch printed\n%s\nfresh\n%s", i, orig.Name, g, w)
		}
		if d := diffLiveness(got, lv, wantLv); d != "" {
			t.Fatalf("proc %d (%s): shared scratch liveness differs: %s", i, orig.Name, d)
		}
		if n > 0 {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("no procedure of the sequence lost code: the test no longer covers removal")
	}
}
