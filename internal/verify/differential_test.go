package verify_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
	"repro/internal/verify"
)

var (
	diffAllocators = []string{"binpack", "twopass", "coloring", "linearscan"}
	diffMachines   = []string{"alpha", "tiny:6,4"}
)

// allocated is one procedure as an allocator hands it to the verifier:
// pre-peephole, with its Orig annotations.
type allocated struct {
	name string
	proc *ir.Proc
	mach *target.Machine
}

// allocate runs the allocator named algo over every procedure of prog
// the way alloc.Pipeline does up to verification (clone, DCE, allocate),
// and copies each result out before the next allocation reuses the
// allocator's scratch.
func allocate(t testing.TB, name string, prog *ir.Program, mach *target.Machine, algo string) []allocated {
	a, err := experiments.Resolve(algo, mach)
	if err != nil {
		t.Fatal(err)
	}
	var out []allocated
	for _, p := range prog.Procs {
		in, lv := alloc.Prepare(p, nil, nil)
		res, err := a.Allocate(in, lv, nil)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, p.Name, err)
		}
		out = append(out, allocated{fmt.Sprintf("%s/%s/%s/%s", algo, mach.Name, name, p.Name), res.Proc.Clone(), mach})
	}
	return out
}

func mustMachine(t testing.TB, name string) *target.Machine {
	mach, err := target.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

// generated returns the program of a generator profile for a seed.
func generated(t testing.TB, profile string, seed int64, mach *target.Machine) *ir.Program {
	cfg, err := progs.ProfileGen(profile, seed)
	if err != nil {
		t.Fatal(err)
	}
	return progs.Random(mach, cfg)
}

// mutate applies one mutation to p, chosen by kind: 0 deletes an
// instruction, 1 redirects a register use and 2 a register def to
// register reg. at picks the instruction or operand, modulo the count.
// Registers stay in range, so both verifiers must agree on the result.
func mutate(p *ir.Proc, mach *target.Machine, kind, at, reg int) {
	var regs []*ir.Operand
	n := 0
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			n++
			ops := b.Instrs[i].Uses
			if kind%3 == 2 {
				ops = b.Instrs[i].Defs
			}
			for j := range ops {
				if ops[j].Kind == ir.KindReg {
					regs = append(regs, &ops[j])
				}
			}
		}
	}
	if kind%3 != 0 {
		if len(regs) > 0 {
			regs[at%len(regs)].Reg = target.Reg(reg % mach.NumRegs())
		}
		return
	}
	at %= n
	for _, b := range p.Blocks {
		if at < len(b.Instrs) {
			b.Instrs = append(b.Instrs[:at], b.Instrs[at+1:]...)
			return
		}
		at -= len(b.Instrs)
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// agree fails t unless the dense verifier and the reference reach the
// same verdict with the same error text on p. The reference runs on a
// clone: it writes into the spare capacity of its input's Uses.
func agree(t testing.TB, name string, p *ir.Proc, mach *target.Machine) error {
	got := verify.Verify(p, mach)
	want := referenceVerify(p.Clone(), mach)
	if errString(got) != errString(want) {
		t.Fatalf("%s: verifiers disagree\ndense:     %v\nreference: %v", name, got, want)
	}
	return got
}

// TestVerifyMatchesReference checks the dense verifier against the
// map-based reference on allocator output (the Table 1 programs at
// scale 2 and six seeds of every generator profile), on 20 seeded
// mutants of each procedure and on the Table 3 modules. The subtests
// run in parallel: the reference is slow.
func TestVerifyMatchesReference(t *testing.T) {
	for _, mname := range diffMachines {
		for _, algo := range diffAllocators {
			t.Run(mname+"/"+algo, func(t *testing.T) {
				t.Parallel()
				mach := mustMachine(t, mname)
				var procs []allocated
				for _, bench := range progs.Suite() {
					procs = append(procs, allocate(t, bench.Name, bench.Build(mach, 2), mach, algo)...)
				}
				for _, profile := range progs.Profiles() {
					for seed := int64(1); seed <= 6; seed++ {
						prog := generated(t, profile, seed, mach)
						procs = append(procs, allocate(t, fmt.Sprintf("%s-%d", profile, seed), prog, mach, algo)...)
					}
				}
				rejected, mutants := 0, 0
				for pi, a := range procs {
					if err := agree(t, a.name, a.proc, mach); err != nil {
						t.Fatalf("%s: allocator output rejected: %v", a.name, err)
					}
					rng := rand.New(rand.NewSource(int64(pi)))
					for k := 0; k < 20; k++ {
						m := a.proc.Clone()
						mutate(m, mach, k, rng.Intn(1<<20), rng.Intn(1<<10))
						mutants++
						if agree(t, fmt.Sprintf("%s mutant %d", a.name, k), m, mach) != nil {
							rejected++
						}
					}
				}
				t.Logf("%d procedures, %d mutants, %d rejected, 0 disagreements", len(procs), mutants, rejected)
				if rejected == 0 || rejected == mutants {
					t.Fatalf("mutants exercise only one verdict: %d of %d rejected", rejected, mutants)
				}
			})
		}
	}
	t.Run("table3/binpack", func(t *testing.T) {
		t.Parallel()
		mach := target.Alpha()
		for _, mod := range progs.Table3Modules(mach) {
			for _, a := range allocate(t, mod.Name, mod.Prog, mach, "binpack") {
				if err := agree(t, a.name, a.proc, mach); err != nil {
					t.Fatalf("%s: allocator output rejected: %v", a.name, err)
				}
			}
		}
	})
}

// FuzzVerifyMatchesReference: the fuzz bytes pick a generator profile,
// seed, machine, allocator and procedure, then a sequence of mutations
// (three bytes each: kind, position, register). The dense verifier must
// never panic and must agree with the reference.
func FuzzVerifyMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0})
	f.Add([]byte{3, 7, 1, 2, 0, 1, 40, 3})
	f.Add([]byte{5, 2, 0, 3, 1, 2, 9, 1, 0, 17, 0})
	profiles := progs.Profiles()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		mach := mustMachine(t, diffMachines[int(data[2])%len(diffMachines)])
		prog := generated(t, profiles[int(data[0])%len(profiles)], int64(data[1]), mach)
		procs := allocate(t, "fuzz", prog, mach, diffAllocators[int(data[3])%len(diffAllocators)])
		a := procs[int(data[4])%len(procs)]
		p := a.proc.Clone()
		for rest := data[5:]; len(rest) >= 3; rest = rest[3:] {
			mutate(p, mach, int(rest[0]), int(rest[1]), int(rest[2]))
		}
		agree(t, a.name, p, mach)
	})
}

// TestVerifyConcurrent runs Verify from several goroutines at once, so
// the race detector sees the pooled scratch shared across calls, and
// checks every verdict against a sequential run.
func TestVerifyConcurrent(t *testing.T) {
	mach := mustMachine(t, "tiny:6,4")
	var procs []allocated
	for seed := int64(1); seed <= 3; seed++ {
		procs = append(procs, allocate(t, "default", generated(t, "default", seed, mach), mach, "binpack")...)
	}
	for i, n := 0, len(procs); i < n; i++ {
		m := procs[i].proc.Clone()
		mutate(m, mach, i, 7*i, i)
		procs = append(procs, allocated{procs[i].name + " mutant", m, mach})
	}
	want := make([]string, len(procs))
	for i, a := range procs {
		want[i] = errString(verify.Verify(a.proc, mach))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for i, a := range procs {
					if got := errString(verify.Verify(a.proc, mach)); got != want[i] {
						t.Errorf("%s: concurrent verdict %q, sequential %q", a.name, got, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
}
