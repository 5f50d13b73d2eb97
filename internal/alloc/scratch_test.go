package alloc_test

import (
	"strings"
	"testing"

	"repro/internal/alloc"
	_ "repro/internal/coloring" // registers "coloring"
	_ "repro/internal/core"     // registers "binpack" and "twopass"
	"repro/internal/ir"
	_ "repro/internal/linearscan" // registers "linearscan"
	"repro/internal/progs"
	"repro/internal/target"
)

// TestScratchOutputsOwnTheirStorage checks that a pipeline result shares
// no storage with the Scratch or the allocator it ran on: the clone, the
// rewritten code, the spill and repair code and the callee-save code all
// live in pooled arenas that the next procedure overwrites, and only the
// copy-out may reach the caller. For every registered algorithm, one
// allocator and one Scratch run a sequence of procedures of different
// sizes (so every arena is both regrown and reused); each result must
// print as it did when it was made, and as the same procedure run on
// fresh storage prints.
func TestScratchOutputsOwnTheirStorage(t *testing.T) {
	mach := target.Alpha()
	hp, err := progs.ProfileGen("high-pressure", 3)
	if err != nil {
		t.Fatal(err)
	}
	var seq []*ir.Proc
	for _, prog := range []*ir.Program{
		progs.Random(mach, hp),
		progs.Named("fpppp").Build(mach, 1),
		progs.Displacement(mach),
		progs.Named("wc").Build(mach, 1),
	} {
		seq = append(seq, prog.Procs...)
	}
	pr := ir.Printer{Mach: mach, Tags: true}
	print := func(p *ir.Proc) string {
		var sb strings.Builder
		pr.WriteProc(&sb, p)
		return sb.String()
	}
	pl := alloc.Pipeline{Mach: mach, Verify: true}
	for _, name := range []string{"binpack", "twopass", "coloring", "linearscan"} {
		factory, ok := alloc.Lookup(name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		a := factory(mach)
		var sc alloc.Scratch
		results := make([]*ir.Proc, len(seq))
		printed := make([]string, len(seq))
		for i, p := range seq {
			res, err := pl.Run(a, &sc, p)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, p.Name, err)
			}
			fresh, err := pl.Run(factory(mach), nil, p)
			if err != nil {
				t.Fatalf("%s: %s on fresh storage: %v", name, p.Name, err)
			}
			results[i], printed[i] = res.Proc, print(res.Proc)
			if want := print(fresh.Proc); printed[i] != want {
				t.Fatalf("%s: %s prints differently on a reused Scratch:\n%s\nfresh storage:\n%s", name, p.Name, printed[i], want)
			}
		}
		for i, p := range results {
			if got := print(p); got != printed[i] {
				t.Errorf("%s: the result for %s changed after later procedures ran on its Scratch:\n%s\nwas:\n%s",
					name, seq[i].Name, got, printed[i])
			}
		}
	}
}
