// Package verify checks that an allocated procedure still computes the
// original program: a forward symbolic dataflow over machine locations
// (registers and spill slots) proves that every rewritten use reads the
// value of the temporary the original instruction named, along every
// path.
//
// The verifier consumes the OrigUses/OrigDefs side tables the allocators
// attach while rewriting. It is intentionally conservative: a use that
// reads a location the analysis cannot prove to hold the right value is
// an error. Calls clobber caller-saved registers, so convention bugs
// (keeping a live value in a caller-saved register across a call) are
// caught statically, complementing the VM's paranoid mode.
//
// Verify judges the allocator's own output only: alloc.Pipeline runs it
// right after allocation, before forward stores and the peephole pass.
// Those passes delete and rewrite instructions, so Verify run on their
// output rejects correct allocations; it is not a checker for
// post-peephole code.
//
// One deliberate relaxation models the VM's zero-initialized temporary
// semantics: a use of a temporary that is not defined along every path
// reaching it ("maybe-undefined") is exempt from the location check
// when the location's symbolic content is unknown — i.e. the incoming
// paths disagree about what it holds, which is exactly the shape a
// skippable def produces. In the original program such a read yields
// the temp file's initial zero, so no allocation decision can be
// proven wrong against it; demanding a proof there would reject correct
// whole-lifetime allocations (coloring, linear scan, two-pass
// binpacking) of generator programs whose defs sit inside loops that
// always execute but could statically be skipped. The exemption stays
// narrow: if every path agrees the location holds a different
// temporary's value, the use is still rejected, and uses defined along
// every path are checked exactly. The residual blind spot is
// acknowledged: a wrong-location read of a maybe-undefined temporary
// whose location is also unknown at the merge (e.g. a dropped
// resolution move for exactly such a temp) is indistinguishable from
// the legitimate skippable-def shape without path-sensitive analysis,
// and is accepted.
//
// The symbolic state is dense. Register r is location r and slot s is
// location NumRegs()+s-lo, lo being the lowest slot an operand names.
// Each block's in-state is one row of a blocks × locations slab, so a
// merge compares two rows element-wise, and memory is O(blocks ×
// locations): twldrv.f under binpack, the largest Table 3 procedure,
// needs 385 × 3,381 locations, about 5 MiB. A per-temporary count of
// the locations holding it makes a def of a temporary no location holds
// O(1). The storage is pooled, so a steady-state Verify allocates
// nothing. Verify only reads p; a register, slot or temporary the dense
// state cannot index is an error.
package verify

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/bitset"
	"repro/internal/ir"
	"repro/internal/scratch"
	"repro/internal/target"
)

// noValue marks a location whose symbolic content is unknown.
const noValue ir.Temp = -2

// verifier is the working storage of one Verify call, pooled across
// calls. Locations and blocks are numbered densely (package comment).
type verifier struct {
	nRegs        int
	slotLo       int64
	in           []ir.Temp // in-state rows, one per block
	cur          []ir.Temp // state of the block being interpreted
	held         []int32   // held[t-noValue]: locations in cur holding t
	seen, queued []bool
	work         []int32
	index        map[*ir.Block]int32
	sets         bitset.Slab // must-defined: gen and in per block, out, must
}

var pool = sync.Pool{New: func() any { return &verifier{index: make(map[*ir.Block]int32)} }}

// Verify checks the allocated procedure p against the original program
// structure encoded in its OrigUses/OrigDefs annotations.
func Verify(p *ir.Proc, mach *target.Machine) error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("verify: %s: empty procedure", p.Name)
	}
	v := pool.Get().(*verifier)
	err := v.verify(p, mach)
	clear(v.index) // pool no *ir.Block
	pool.Put(v)
	return err
}

func (v *verifier) verify(p *ir.Proc, mach *target.Machine) error {
	nb, nt := len(p.Blocks), p.NumTemps()
	v.nRegs = mach.NumRegs()

	// Bounds-check what the dense state indexes by and find the slot
	// range. A range wider than the operands that could name it is too
	// sparse to index.
	lo, hi, nOps := int64(math.MaxInt64), int64(-1), 0
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, ops := range [2][]ir.Operand{in.Uses, in.Defs} {
				for _, o := range ops {
					nOps++
					switch {
					case o.Kind == ir.KindReg && (o.Reg < 0 || int(o.Reg) >= v.nRegs):
						return fmt.Errorf("verify: %s: block %s: %v at pos %d: R%d out of range", p.Name, b.Name, in.Op, in.Pos, o.Reg)
					case o.Kind == ir.KindSlot && (o.Imm < 0 || o.Temp < ir.NoTemp || int(o.Temp) >= nt):
						return fmt.Errorf("verify: %s: block %s: %v at pos %d: slot%d:%d out of range", p.Name, b.Name, in.Op, in.Pos, o.Imm, o.Temp)
					case o.Kind == ir.KindSlot:
						lo, hi = min(lo, o.Imm), max(hi, o.Imm)
					}
				}
			}
		}
	}
	if hi < lo {
		lo, hi = 0, -1
	} else if hi-lo >= int64(nOps) {
		return fmt.Errorf("verify: %s: slots %d..%d out of range for %d operands", p.Name, lo, hi, nOps)
	}
	v.slotLo = lo
	v.cur = scratch.Grow(v.cur, v.nRegs+int(hi-lo+1))
	v.in = scratch.Grow(v.in, nb*len(v.cur))
	v.held = scratch.Grow(v.held, nt-int(noValue))
	v.seen = scratch.GrowCleared(v.seen, nb)
	v.queued = scratch.GrowCleared(v.queued, nb)
	for i, b := range p.Blocks {
		v.index[b] = int32(i)
	}

	// Entry state: each temporary's home slot holds its (initial zero)
	// value; everything else is unknown. Slot ownership is recovered
	// from the slot operands themselves.
	e := v.index[p.Entry()]
	entry := v.row(e)
	for l := range entry {
		entry[l] = noValue
	}
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			for _, ops := range [2][]ir.Operand{b.Instrs[i].Uses, b.Instrs[i].Defs} {
				for _, o := range ops {
					if o.Kind == ir.KindSlot && o.Temp != ir.NoTemp {
						entry[v.nRegs+int(o.Imm-lo)] = o.Temp
					}
				}
			}
		}
	}

	// Fixpoint of in-states (decreasing lattice). Blocks are indexed
	// locally so the verifier works on procedures that were never
	// Renumber()ed (e.g. hand-built tests).
	v.seen[e] = true
	v.solve(p, func(bi int32) {
		v.enter(bi)
		v.transfer(p, mach, p.Blocks[bi], nil)
	}, func(si int32) bool {
		in := v.row(si)
		if !v.seen[si] {
			v.seen[si] = true
			copy(in, v.cur)
			return true
		}
		changed := false // meet: keep what both states agree on
		for l, t := range in {
			if t != noValue && t != v.cur[l] {
				in[l] = noValue
				changed = true
			}
		}
		return changed
	})

	// Must-defined temporaries at each block's top (forward intersection
	// over OrigDefs; set i is block i's gen, set nb+i its in-set). Uses
	// of others may be exempt; see the package comment.
	v.sets.Reset(2*nb+2, nt)
	for i, b := range p.Blocks {
		g := v.sets.Set(i)
		for j := range b.Instrs {
			for _, t := range b.Instrs[j].OrigDefs {
				if t != ir.NoTemp {
					g.Add(int(t))
				}
			}
		}
		if b != p.Entry() {
			v.sets.Set(nb + i).Fill() // lattice top; entry starts empty
		}
	}
	out, must := v.sets.Set(2*nb), v.sets.Set(2*nb+1)
	v.solve(p, func(bi int32) {
		out.Copy(v.sets.Set(nb + int(bi)))
		out.Union(v.sets.Set(int(bi)))
	}, func(si int32) bool {
		in := v.sets.Set(nb + int(si))
		before := in.Count()
		in.Intersect(out)
		return in.Count() != before
	})

	// Final pass with checks enabled.
	for _, b := range p.Blocks {
		bi := v.index[b]
		if !v.seen[bi] {
			continue // unreachable
		}
		must.Copy(v.sets.Set(nb + int(bi)))
		v.enter(bi)
		if err := v.transfer(p, mach, b, must); err != nil {
			return fmt.Errorf("verify: %s: block %s: %w", p.Name, b.Name, err)
		}
	}
	return nil
}

// solve runs a worklist from the entry block to a fixpoint: flow
// computes block bi's out-state and merge folds it into successor si's
// in-state, reporting change.
func (v *verifier) solve(p *ir.Proc, flow func(bi int32), merge func(si int32) bool) {
	e := v.index[p.Entry()]
	v.queued[e] = true
	work := append(v.work[:0], e)
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		v.queued[bi] = false
		flow(bi)
		for _, s := range p.Blocks[bi].Succs {
			if si := v.index[s]; merge(si) && !v.queued[si] {
				v.queued[si] = true
				work = append(work, si)
			}
		}
	}
	v.work = work
}

func (v *verifier) row(bi int32) []ir.Temp {
	n := len(v.cur)
	return v.in[int(bi)*n : (int(bi)+1)*n]
}

// enter loads block bi's in-state into cur and recounts held.
func (v *verifier) enter(bi int32) {
	clear(v.held)
	for l, t := range v.row(bi) {
		v.cur[l] = t
		v.held[t-noValue]++
	}
}

// set makes location l hold t (noValue: unknown), keeping held exact.
func (v *verifier) set(l int, t ir.Temp) {
	v.held[v.cur[l]-noValue]--
	v.held[t-noValue]++
	v.cur[l] = t
}

// invalidate forgets every location holding t.
func (v *verifier) invalidate(t ir.Temp) {
	for l := 0; v.held[t-noValue] > 0; l++ {
		if v.cur[l] == t {
			v.set(l, noValue)
		}
	}
}

// loc numbers o's location; ok is false if o is not a location.
func (v *verifier) loc(o ir.Operand) (l int, ok bool) {
	switch o.Kind {
	case ir.KindReg:
		return int(o.Reg), true
	case ir.KindSlot:
		return v.nRegs + int(o.Imm-v.slotLo), true
	}
	return 0, false
}

// transfer interprets one block symbolically on cur. When must is
// non-nil, use sites are validated and the first failure is returned;
// must then carries the must-defined set at the block's top and is
// updated as defs execute, so uses of maybe-undefined temporaries (zero
// in the VM's temp file) can be exempted.
func (v *verifier) transfer(p *ir.Proc, mach *target.Machine, b *ir.Block, must *bitset.Set) error {
	for i := range b.Instrs {
		instr := &b.Instrs[i]

		// Check original uses.
		if must != nil {
			for ui, t := range instr.OrigUses {
				if t == ir.NoTemp {
					continue
				}
				l, ok := v.loc(instr.Uses[ui])
				if !ok {
					return fmt.Errorf("%v: use %d of %s not in a location", instr.Op, ui, p.TempName(t))
				}
				if have := v.cur[l]; have != t {
					if have == noValue && !must.Contains(int(t)) {
						// Maybe-undefined, and the paths disagree about
						// the location: the original program reads the
						// zero-initialized temp file here, so the check
						// is waived (see the package comment).
						continue
					}
					where, name := fmt.Sprintf("R%d", l), "unknown"
					if l >= v.nRegs {
						where = fmt.Sprintf("slot%d", v.slotLo+int64(l-v.nRegs))
					}
					if have != noValue {
						name = p.TempName(have)
					}
					return fmt.Errorf("%v at pos %d: use of %s reads %s which holds %s",
						instr.Op, instr.Pos, p.TempName(t), where, name)
				}
			}
		}

		// Spill instructions carrying Orig annotations are original
		// instructions of the program being verified: graph coloring's
		// spill rewrite introduces fresh temporaries whose defining
		// loads and storing stores are part of the (already rewritten)
		// program, not allocator data movement.
		spillIsOriginal := (instr.Op == ir.SpillLd && instr.OrigDefs != nil && instr.OrigDefs[0] != ir.NoTemp) ||
			(instr.Op == ir.SpillSt && instr.OrigUses != nil && instr.OrigUses[0] != ir.NoTemp)

		switch {
		case instr.Op == ir.Call:
			// Caller-saved registers die. (Return registers too: the
			// value they carry afterwards belongs to the callee and is
			// claimed by the convention move's original def.)
			for r := 0; r < v.nRegs; r++ {
				if mach.CallerSaved(target.Reg(r)) {
					v.set(r, noValue)
				}
			}
		case (instr.Op == ir.SpillLd || instr.Op == ir.SpillSt) && !spillIsOriginal,
			instr.Op.IsMove() && instr.OrigDefs == nil:
			// Pure data movement inserted by the allocator (or a
			// convention move with no temp def): the destination now
			// holds whatever the source held.
			var src, dst ir.Operand
			if instr.Op == ir.SpillSt {
				src, dst = instr.Uses[0], instr.Uses[1]
			} else {
				src, dst = instr.Uses[0], instr.Defs[0]
			}
			sl, sok := v.loc(src)
			dl, dok := v.loc(dst)
			if !dok {
				break
			}
			t := noValue
			if sok {
				t = v.cur[sl]
			}
			v.set(dl, t)
		case instr.Op == ir.SpillSt && spillIsOriginal:
			// An original store of a fresh spill temporary: the slot
			// now holds that temporary's value (its use was checked
			// above).
			if l, ok := v.loc(instr.Uses[1]); ok {
				v.set(l, instr.OrigUses[0])
			}
		default:
			// Original computation (or a rewritten original move):
			// original defs produce fresh values of their temporaries.
			for di := range instr.Defs {
				l, ok := v.loc(instr.Defs[di])
				var t ir.Temp = ir.NoTemp
				if instr.OrigDefs != nil {
					t = instr.OrigDefs[di]
				}
				if t == ir.NoTemp {
					// A write to machine state not tied to a temp. A
					// move still forwards its source's value.
					if ok {
						src := noValue
						if instr.Op.IsMove() {
							if sl, sok := v.loc(instr.Uses[0]); sok {
								src = v.cur[sl]
							}
						}
						v.set(l, src)
					}
					continue
				}
				v.invalidate(t)
				if ok {
					v.set(l, t)
				}
			}
		}

		if must != nil {
			for _, t := range instr.OrigDefs {
				if t != ir.NoTemp {
					must.Add(int(t))
				}
			}
		}
	}
	return nil
}
