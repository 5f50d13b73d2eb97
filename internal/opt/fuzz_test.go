package opt_test

import (
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
)

// fuzzScratch is shared by every input of FuzzDCEMatchesReference, so
// the pooled clone and dead-code elimination storage carry state from
// one procedure, and one input, to the next, as they do on an engine
// worker.
var fuzzScratch alloc.Scratch

var fuzzMachines = []string{"alpha", "x86-8", "tiny:4,2"}

// FuzzDCEMatchesReference drives generator programs through the
// pipeline's dead-code elimination (alloc.Prepare) on one shared scratch
// and through referenceDCE, and requires the same removed count and the
// same printed procedure.
// The first byte picks the machine; every following group of three
// picks a generator profile and a 16-bit seed, one program each.
func FuzzDCEMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1})
	f.Add([]byte{1, 0, 0, 7, 4, 1, 2})
	f.Add([]byte{2, 2, 0, 3, 5, 0, 9, 3, 1, 1})
	f.Add([]byte{0, 3, 0, 2, 6, 0, 5, 3, 0, 4})
	profiles := progs.Profiles()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		mach, err := target.Parse(fuzzMachines[int(data[0])%len(fuzzMachines)])
		if err != nil {
			t.Fatal(err)
		}
		pr := ir.Printer{Mach: mach}
		print := func(p *ir.Proc) string {
			var sb strings.Builder
			pr.WriteProc(&sb, p)
			return sb.String()
		}
		for rec := data[1:]; len(rec) >= 3; rec = rec[3:] {
			prof := profiles[int(rec[0])%len(profiles)]
			cfg, err := progs.ProfileGen(prof, int64(rec[1])<<8|int64(rec[2]))
			if err != nil {
				t.Fatal(err)
			}
			for _, orig := range progs.Random(mach, cfg).Procs {
				want := orig.Clone()
				wantN := referenceDCE(want)
				got, _ := alloc.Prepare(orig, &fuzzScratch, nil)
				n := orig.NumInstrs() - got.NumInstrs()
				if n != wantN {
					t.Fatalf("%s seed %d proc %s: removed %d, reference %d", prof, cfg.Seed, orig.Name, n, wantN)
				}
				if g, w := print(got), print(want); g != w {
					t.Fatalf("%s seed %d proc %s: printed\n%s\nreference\n%s", prof, cfg.Seed, orig.Name, g, w)
				}
			}
		}
	})
}
