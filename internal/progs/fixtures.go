package progs

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/target"
)

// GoldenCorpus returns, with their names, the programs the allocation
// digests and the allocator invariant tests run on a machine: the eleven
// suite programs at scale 1, four seeds of every generator profile, the
// three Table 3 modules and Displacement, in that order.
func GoldenCorpus(m *target.Machine) (names []string, ps []*ir.Program) {
	for _, b := range Suite() {
		names = append(names, b.Name)
		ps = append(ps, b.Build(m, 1))
	}
	for _, prof := range Profiles() {
		for seed := int64(1); seed <= 4; seed++ {
			cfg, err := ProfileGen(prof, seed)
			if err != nil {
				panic(err)
			}
			names = append(names, fmt.Sprintf("%s/%d", prof, seed))
			ps = append(ps, Random(m, cfg))
		}
	}
	for _, mod := range Table3Modules(m) {
		names = append(names, mod.Name)
		ps = append(ps, mod.Prog)
	}
	return append(names, "displacement"), append(ps, Displacement(m))
}

// Displacement is a hand-built program for the displacement branch of
// §2.5 move coalescing, which no suite or generated program reaches:
// t's register goes to d while t, a global whose register copy is newer
// than its home, sits in a lifetime hole that reaches past the end of
// the entry block.
func Displacement(m *target.Machine) *ir.Program {
	b := ir.NewBuilder(m, 16)
	pb := b.NewProc("main")
	then, els, join := pb.Block("then"), pb.Block("else"), pb.Block("join")
	t, d, x, c := pb.IntTemp("t"), pb.IntTemp("d"), pb.IntTemp("x"), pb.IntTemp("c")
	pb.Ldi(t, 1)
	pb.Mov(d, ir.TempOp(t))
	pb.Op2(ir.Add, x, ir.TempOp(d), ir.ImmOp(1))
	pb.Call("puti", ir.NoTemp, ir.TempOp(x))
	pb.Op2(ir.CmpLT, c, ir.TempOp(x), ir.ImmOp(5))
	pb.Br(ir.TempOp(c), then, els)
	pb.StartBlock(then)
	pb.Ldi(t, 2)
	pb.Jmp(join)
	pb.StartBlock(els)
	pb.Ldi(t, 3)
	pb.Jmp(join)
	pb.StartBlock(join)
	pb.Call("puti", ir.NoTemp, ir.TempOp(t))
	pb.Ret(t)
	return b.Prog
}
