package regalloc_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	regalloc "repro"
	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/progs"
)

// digestFile is the committed golden file of TestAllocationDigests. A
// change that is meant to alter allocated code (a quality change)
// regenerates it with
//
//	LSRA_UPDATE_DIGESTS=1 go test -run '^TestAllocationDigests$' .
//
// and the diff of the file shows which configurations and programs
// moved. A speed or refactoring change must leave it untouched.
const digestFile = "testdata/allocation_digests.txt"

// digestCase is one allocator configuration of the golden grid.
type digestCase struct {
	name  string // column 1 of the file
	mach  string
	alloc func(*regalloc.Machine) alloc.Allocator
}

func digestCases() []digestCase {
	registered := func(name string) func(*regalloc.Machine) alloc.Allocator {
		return func(m *regalloc.Machine) alloc.Allocator {
			f, _ := alloc.Lookup(name)
			return f(m)
		}
	}
	withOpts := func(edit func(*core.Options)) func(*regalloc.Machine) alloc.Allocator {
		return func(m *regalloc.Machine) alloc.Allocator {
			o := core.DefaultOptions()
			edit(&o)
			return core.New(m, o)
		}
	}
	var cs []digestCase
	for _, algo := range []string{"binpack", "twopass"} {
		for _, m := range []string{"alpha", "x86-8", "tiny:6,4", "tiny:4,2"} {
			cs = append(cs, digestCase{name: algo, mach: m, alloc: registered(algo)})
		}
	}
	return append(cs,
		digestCase{name: "binpack+strict", mach: "alpha",
			alloc: withOpts(func(o *core.Options) { o.StrictLinear = true })},
		digestCase{name: "binpack-early", mach: "alpha",
			alloc: withOpts(func(o *core.Options) { o.EarlySecondChance = false })})
}

// computeDigests allocates the golden grid through the engine's pass
// ordering and returns one "<config> <machine> <program> <sha256>" line
// per allocation, hashing the printed program with tags, or the error
// text when allocation fails.
func computeDigests(t *testing.T) []string {
	cs := digestCases()
	lines := make([][]string, len(cs))
	corpus := map[string][]*ir.Program{}
	var names []string
	for _, c := range cs {
		if _, ok := corpus[c.mach]; ok {
			continue
		}
		m, err := regalloc.ParseMachine(c.mach)
		if err != nil {
			t.Fatal(err)
		}
		names, corpus[c.mach] = progs.GoldenCorpus(m)
	}
	t.Run("grid", func(t *testing.T) {
		for i, c := range cs {
			t.Run(c.name+"@"+c.mach, func(t *testing.T) {
				t.Parallel()
				m, _ := regalloc.ParseMachine(c.mach)
				a := c.alloc(m)
				pl := alloc.Pipeline{Mach: m}
				pr := ir.Printer{Mach: m, Tags: true}
				for j, prog := range corpus[c.mach] {
					var text string
					out, _, err := pl.Program(a, prog)
					if err != nil {
						text = "error: " + err.Error()
					} else {
						var sb strings.Builder
						pr.WriteProgram(&sb, out)
						text = sb.String()
					}
					sum := sha256.Sum256([]byte(text))
					lines[i] = append(lines[i], fmt.Sprintf("%s %s %s %s",
						c.name, c.mach, names[j], hex.EncodeToString(sum[:])))
				}
			})
		}
	})
	var all []string
	for _, l := range lines {
		all = append(all, l...)
	}
	return all
}

// TestAllocationDigests pins the allocated code, byte for byte, of both
// binpacking allocators on four machines plus the StrictLinear and
// no-early-second-chance options over a fixed corpus. Speed work on the
// scan or resolution must leave every digest unchanged.
func TestAllocationDigests(t *testing.T) {
	got := computeDigests(t)
	if os.Getenv("LSRA_UPDATE_DIGESTS") != "" {
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestFile)
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("digest changed:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d digests changed in all", bad)
	}
}
