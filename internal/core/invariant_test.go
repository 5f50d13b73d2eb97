package core

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/progs"
	"repro/internal/target"
)

// invariantCorpus is the golden corpus of the root package's digest
// test, by name.
func invariantCorpus(m *target.Machine) map[string]*ir.Program {
	names, ps := progs.GoldenCorpus(m)
	out := make(map[string]*ir.Program, len(names))
	for i, name := range names {
		out[name] = ps[i]
	}
	return out
}

// snapSet returns the register snapshot as a global → register map.
func snapSet(snaps []regSnap) map[int32]target.Reg {
	m := make(map[int32]target.Reg, len(snaps))
	for _, e := range snaps {
		m[e.gi] = e.r
	}
	return m
}

// inRegs recomputes a snapshot the way the per-global walk did: every
// global of the live set that is in a register.
func inRegs(s *scan, live *bitset.Set) map[int32]target.Reg {
	m := map[int32]target.Reg{}
	live.ForEach(func(gi int) {
		if r := s.loc[s.lv.Globals[gi]]; r != target.NoReg {
			m[int32(gi)] = r
		}
	})
	return m
}

func sameSnap(a, b map[int32]target.Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for gi, r := range a {
		if r2, ok := b[gi]; !ok || r2 != r {
			return false
		}
	}
	return true
}

// checkBoundary checks the scan state at the bottom of block b: regOcc
// and loc are mutual inverses, the running ARE_CONSISTENT bitset and the
// copy endBlock saved equal the per-global recomputation, and the
// bottom snapshot holds exactly the live-out globals in registers.
func checkBoundary(t *testing.T, s *scan, b *ir.Block) {
	t.Helper()
	for r, tmp := range s.regOcc {
		if tmp != ir.NoTemp && s.loc[tmp] != target.Reg(r) {
			t.Fatalf("block %s: regOcc[%d] = t%d but loc[t%d] = %d", b.Name, r, tmp, tmp, s.loc[tmp])
		}
	}
	for tmp, r := range s.loc {
		if r != target.NoReg && s.regOcc[r] != ir.Temp(tmp) {
			t.Fatalf("block %s: loc[t%d] = %d but regOcc[%d] = t%d", b.Name, tmp, r, r, s.regOcc[r])
		}
	}
	for gi, tmp := range s.lv.Globals {
		want := s.loc[tmp] == target.NoReg || s.consistent[tmp]
		if got := s.consBits.Contains(gi); got != want {
			t.Fatalf("block %s: running ARE_CONSISTENT bit of t%d = %v, recomputed %v", b.Name, tmp, got, want)
		}
		if got := s.savedCons[b.Order].Contains(gi); got != want {
			t.Fatalf("block %s: saved ARE_CONSISTENT bit of t%d = %v, recomputed %v", b.Name, tmp, got, want)
		}
	}
	if got, want := snapSet(s.snapsOf(s.bot[b.Order])), inRegs(s, s.lv.LiveOut[b.Order]); !sameSnap(got, want) {
		t.Fatalf("block %s: bottom snapshot %v, live-out globals in registers %v", b.Name, got, want)
	}
}

// TestScanBoundaryInvariants drives the scan block by block over the
// golden corpus and checks the state every block boundary relies on:
// the register snapshots carry what the per-global walks over the live
// sets recorded, and the running ARE_CONSISTENT bitset never drifts.
func TestScanBoundaryInvariants(t *testing.T) {
	for _, mc := range []struct {
		mach string
		opts func() Options
	}{
		{"alpha", DefaultOptions},
		{"tiny:4,2", DefaultOptions},
		{"x86-8", DefaultOptions},
		{"alpha", func() Options { o := DefaultOptions(); o.StrictLinear = true; return o }},
		{"alpha", func() Options { o := DefaultOptions(); o.EarlySecondChance = false; return o }},
	} {
		mach, err := target.Parse(mc.mach)
		if err != nil {
			t.Fatal(err)
		}
		opts := mc.opts()
		var sc scanScratch // shared, as on one pooled Allocator
		var loops cfg.Scratch
		for name, prog := range invariantCorpus(mach) {
			for _, orig := range prog.Procs {
				p, lv := alloc.Prepare(orig, nil, &alloc.Stats{})
				p.Renumber()
				loops.ComputeLoopDepths(p)
				s := newScan(p, mach, opts, lv, lifetime.Compute(p, lv), lifetime.ComputeRegBusy(p, mach), &sc)
				for _, b := range p.Blocks {
					top := inRegs(s, lv.LiveIn[b.Order])
					if err := s.block(b); err != nil {
						t.Fatalf("%s %s %s: %v", mc.mach, name, p.Name, err)
					}
					if got := snapSet(s.snapsOf(s.top[b.Order])); !sameSnap(got, top) {
						t.Fatalf("%s %s %s: block %s top snapshot %v, live-in globals in registers %v",
							mc.mach, name, p.Name, b.Name, got, top)
					}
					checkBoundary(t, s, b)
				}
				s.resolve(&sc)
				s.release(&sc)
			}
		}
	}
}

// convReuse reads a convention register twice in one block, first into
// a temp whose value is dead (so its lifetime is a point, and the move
// optimization may hand it the still-busy register) and redefined later.
// Dead-code elimination would delete that first move, so the test below
// allocates this procedure without it.
const convReuse = `program mem=256 main=main

func f(a int) {
entry:
    d = mov $r1
    a = mov $r1
    d = add a, 1
    $r0 = mov d
    ret
}

func main() {
entry:
    x = ldi 5
    $r1 = mov x
    $r0 = call @f($r1)
    ret
}
`

// presetCorpus is the golden corpus on m or, on a preset whose calling
// convention cannot build the suite programs (narrow-1 has a single
// integer parameter register), the generated programs, the Table 3
// modules and Displacement, which every preset runs.
func presetCorpus(m *target.Machine) (out map[string]*ir.Program) {
	defer func() {
		if recover() == nil {
			return
		}
		out = map[string]*ir.Program{"displacement": progs.Displacement(m)}
		for _, prof := range progs.Profiles() {
			for seed := int64(1); seed <= 4; seed++ {
				cfg, err := progs.ProfileGen(prof, seed)
				if err != nil {
					panic(err)
				}
				out[fmt.Sprintf("%s/%d", prof, seed)] = progs.Random(m, cfg)
			}
		}
		for _, mod := range progs.Table3Modules(m) {
			out[mod.Name] = mod.Prog
		}
	}()
	return invariantCorpus(m)
}

// expiryCase is one procedure to scan: p renumbered, lv its liveness.
type expiryCase struct {
	name string
	p    *ir.Proc
	lv   *dataflow.Liveness
}

// TestExpiryLeavesNoBusyOccupant checks, after every instruction's
// expiry step, that no occupied register is busy at the instruction's
// position. This is what lets expire visit only the busy segments that
// start there (plus every register after a move handed a destination
// its busy convention register): a register held at pos can only have
// become busy at a position the scan has visited. It runs the golden
// corpus on every machine preset, and convReuse without dead-code
// elimination, whose recheck is what evicts.
func TestExpiryLeavesNoBusyOccupant(t *testing.T) {
	var loops cfg.Scratch
	for _, name := range append(target.PresetNames(), "tiny:4,2") {
		mach, err := target.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		var cases []expiryCase
		for pname, prog := range presetCorpus(mach) {
			for _, orig := range prog.Procs {
				p, lv := alloc.Prepare(orig, nil, &alloc.Stats{})
				cases = append(cases, expiryCase{pname + "/" + p.Name, p, lv})
			}
		}
		if name == "x86-8" {
			prog, err := ir.ParseProgramString(convReuse, mach)
			if err != nil {
				t.Fatal(err)
			}
			for _, orig := range prog.Procs {
				p := orig.Clone()
				p.Renumber()
				cases = append(cases, expiryCase{"convReuse/" + p.Name, p, dataflow.Compute(p)})
			}
		}
		var sc scanScratch // shared, as on one pooled Allocator
		for _, c := range cases {
			p := c.p
			p.Renumber()
			loops.ComputeLoopDepths(p)
			rb := lifetime.ComputeRegBusy(p, mach)
			s := newScan(p, mach, DefaultOptions(), c.lv, lifetime.Compute(p, c.lv), rb, &sc)
			for _, b := range p.Blocks { // scan.block, checked between expire and instr
				s.cur = b
				s.startBlock(b)
				lo := len(s.out)
				for i := range b.Instrs {
					in := &b.Instrs[i]
					s.expire(in.Pos)
					for r, tmp := range s.regOcc {
						if tmp != ir.NoTemp && rb.BusyAt(target.Reg(r), in.Pos) {
							t.Fatalf("%s %s: after expiry at %d, %s holds %s but is busy",
								name, c.name, in.Pos, mach.RegName(target.Reg(r)), p.TempName(tmp))
						}
					}
					if err := s.instr(in); err != nil {
						t.Fatalf("%s %s: %v", name, c.name, err)
					}
				}
				s.endBlock(b)
				s.body[b.Order] = span{int32(lo), int32(len(s.out))}
			}
			s.resolve(&sc)
			s.release(&sc)
		}
	}
}
