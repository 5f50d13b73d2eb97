package main

import (
	"fmt"
	"math/rand"

	regalloc "repro"
	"repro/internal/ir"
	"repro/internal/progs"
)

// input is one program the benchmark hands to the system, with the byte
// stream its getc calls read when it runs on the VM.
type input struct {
	name  string
	prog  *ir.Program
	stdin []byte
}

// randomInputs draws n programs with randomProgram.
func randomInputs(mach *regalloc.Machine, rng *rand.Rand, n int) []input {
	out := make([]input, n)
	for j := range out {
		out[j] = randomProgram(mach, rng, j)
	}
	return out
}

// randomProgram draws program j of a seeded sequence that cycles through
// the generator profiles, so the mix of program shapes is the same for
// every seed and only the programs differ.
func randomProgram(mach *regalloc.Machine, rng *rand.Rand, j int) input {
	names := progs.Profiles()
	cfg, err := progs.ProfileGen(names[j%len(names)], rng.Int63())
	if err != nil {
		panic(err) // progs.Profiles only lists known profiles
	}
	return input{name: fmt.Sprintf("%s/%d", cfg.Profile, j), prog: progs.Random(mach, cfg)}
}

// suiteInputs is the suite-verified input set: the eleven Table 1
// programs at their default scale, then 32 seeded programs from each of
// the 7 generator profiles. With fewer, the seed's draw moves the
// workload's heap and time per program by more than run-to-run noise.
func suiteInputs(mach *regalloc.Machine, seed int64) []input {
	var out []input
	for _, b := range progs.Suite() {
		in := input{name: b.Name, prog: b.Build(mach, b.DefaultScale)}
		if b.Input != nil {
			in.stdin = b.Input(b.DefaultScale)
		}
		out = append(out, in)
	}
	return append(out, randomInputs(mach, rand.New(rand.NewSource(seed)), 32*len(progs.Profiles()))...)
}

// jitInputs is the modules-jit input set: the three Table 3 module
// shapes plus 96 seeded high-pressure programs of about 500 statements.
// Many mid-sized programs keep the workload's totals steady from seed to
// seed (at 2000 statements a program's allocation time varies sevenfold);
// the modules still take about 30% of the time and set the latency tail.
func jitInputs(mach *regalloc.Machine, seed int64) []input {
	var out []input
	for _, m := range progs.Table3Modules(mach) {
		out = append(out, input{name: m.Name, prog: callableModule(mach, m.Prog)})
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < 96; k++ {
		cfg, err := progs.ProfileGen("high-pressure", rng.Int63())
		if err != nil {
			panic(err)
		}
		cfg.Stmts = 500
		out = append(out, input{name: fmt.Sprintf("high-pressure-500/%d", k), prog: progs.Random(mach, cfg)})
	}
	return out
}

// callableModule returns a Table 3 module whose main calls every module
// procedure once and prints the combined result. The generated modules'
// own main never calls them, so without this the VM would execute none
// of the allocated code and the output check would check nothing.
func callableModule(mach *regalloc.Machine, mod *ir.Program) *ir.Program {
	b := ir.NewBuilder(mach, mod.MemWords)
	pb := b.NewProc("main")
	sum := pb.IntTemp("sum")
	pb.Ldi(sum, 0)
	var procs []*ir.Proc
	for i, p := range mod.Procs {
		if p.Name == mod.Main {
			continue
		}
		r := pb.IntTemp("")
		pb.Call(p.Name, r, ir.ImmOp(int64(i+1)))
		pb.Op2(ir.Xor, sum, ir.TempOp(sum), ir.TempOp(r))
		procs = append(procs, p)
	}
	pb.Call("puti", ir.NoTemp, ir.TempOp(sum))
	pb.Ret(sum)
	for _, p := range procs {
		b.Prog.AddProc(p)
	}
	return b.Prog
}

// staticInstrs counts the instructions of every procedure of prog.
func staticInstrs(prog *ir.Program) int64 {
	var n int64
	for _, p := range prog.Procs {
		n += int64(p.NumInstrs())
	}
	return n
}
