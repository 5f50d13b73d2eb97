package verify_test

// referenceVerify is the map-based verifier the dense one replaced,
// kept verbatim as the oracle TestVerifyMatchesReference and
// FuzzVerifyMatchesReference compare against. It is test-only.

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/ir"
	"repro/internal/target"
)

// loc is a machine location: a register or a spill slot.
type loc struct {
	isSlot bool
	reg    target.Reg
	slot   int64
}

func regLoc(r target.Reg) loc { return loc{reg: r} }
func slotLoc(s int64) loc     { return loc{isSlot: true, slot: s} }
func (l loc) String() string {
	if l.isSlot {
		return fmt.Sprintf("slot%d", l.slot)
	}
	return fmt.Sprintf("R%d", l.reg)
}

// value is the temporary whose current (original-program) value a
// location holds; noValue means unknown.
const noValue ir.Temp = -2

type state map[loc]ir.Temp

func (s state) clone() state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// meet intersects other into s and reports change.
func (s state) meet(other state) bool {
	changed := false
	for k, v := range s {
		if ov, ok := other[k]; !ok || ov != v {
			delete(s, k)
			changed = true
		}
	}
	return changed
}

// referenceVerify checks the allocated procedure p against the original program
// structure encoded in its OrigUses/OrigDefs annotations.
func referenceVerify(p *ir.Proc, mach *target.Machine) error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("verify: %s: empty procedure", p.Name)
	}

	// Entry state: each temporary's home slot holds its (initial zero)
	// value; everything else is unknown. Slot ownership is recovered
	// from the slot operands themselves.
	entry := make(state)
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			for _, o := range append(b.Instrs[i].Uses, b.Instrs[i].Defs...) {
				if o.Kind == ir.KindSlot && o.Temp != ir.NoTemp {
					entry[slotLoc(o.Imm)] = o.Temp
				}
			}
		}
	}

	// Fixpoint of in-states (decreasing lattice). Blocks are indexed
	// locally so the verifier works on procedures that were never
	// Renumber()ed (e.g. hand-built tests).
	index := make(map[*ir.Block]int, len(p.Blocks))
	for i, b := range p.Blocks {
		index[b] = i
	}
	in := make([]state, len(p.Blocks))
	in[index[p.Entry()]] = entry
	work := []*ir.Block{p.Entry()}
	queued := make([]bool, len(p.Blocks))
	queued[index[p.Entry()]] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		queued[index[b]] = false
		out := in[index[b]].clone()
		transferBlock(p, mach, b, out, nil, nil)
		for _, s := range b.Succs {
			if in[index[s]] == nil {
				in[index[s]] = out.clone()
			} else if !in[index[s]].meet(out) {
				continue
			}
			if !queued[index[s]] {
				queued[index[s]] = true
				work = append(work, s)
			}
		}
	}

	mustIn := mustDefined(p, index)

	// Final pass with checks enabled.
	for _, b := range p.Blocks {
		if in[index[b]] == nil {
			continue // unreachable
		}
		st := in[index[b]].clone()
		must := mustIn[index[b]].Clone()
		var err error
		transferBlock(p, mach, b, st, must, func(e error) {
			if err == nil {
				err = e
			}
		})
		if err != nil {
			return fmt.Errorf("verify: %s: block %s: %w", p.Name, b.Name, err)
		}
	}
	return nil
}

// mustDefined computes, per block, the set of temporaries defined along
// every path from entry to the block's top (a forward intersection
// dataflow over OrigDefs). Uses of temporaries outside this set read the
// VM's zero-initialized temp file in the original program and are exempt
// from location checking; see the package comment.
func mustDefined(p *ir.Proc, index map[*ir.Block]int) []*bitset.Set {
	nt := p.NumTemps()
	nb := len(p.Blocks)
	gen := make([]*bitset.Set, nb)
	mustIn := make([]*bitset.Set, nb)
	for i, b := range p.Blocks {
		g := bitset.New(nt)
		for j := range b.Instrs {
			for _, t := range b.Instrs[j].OrigDefs {
				if t != ir.NoTemp {
					g.Add(int(t))
				}
			}
		}
		gen[i] = g
		mustIn[i] = bitset.New(nt)
		if b != p.Entry() {
			mustIn[i].Fill() // lattice top; entry starts empty
		}
	}
	work := []*ir.Block{p.Entry()}
	queued := make([]bool, nb)
	queued[index[p.Entry()]] = true
	out := bitset.New(nt)
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		bi := index[b]
		queued[bi] = false
		out.Copy(mustIn[bi])
		out.Union(gen[bi])
		for _, s := range b.Succs {
			si := index[s]
			before := mustIn[si].Count()
			mustIn[si].Intersect(out)
			if mustIn[si].Count() != before && !queued[si] {
				queued[si] = true
				work = append(work, s)
			}
		}
	}
	return mustIn
}

// transferBlock interprets one block symbolically, mutating st. When
// check is non-nil, use sites are validated; must then carries the
// must-defined set at the block's top and is updated as defs execute, so
// uses of maybe-undefined temporaries (zero in the VM's temp file) can
// be exempted.
func transferBlock(p *ir.Proc, mach *target.Machine, b *ir.Block, st state, must *bitset.Set, check func(error)) {
	invalidate := func(t ir.Temp) {
		for k, v := range st {
			if v == t {
				delete(st, k)
			}
		}
	}
	locOf := func(o ir.Operand) (loc, bool) {
		switch o.Kind {
		case ir.KindReg:
			return regLoc(o.Reg), true
		case ir.KindSlot:
			return slotLoc(o.Imm), true
		}
		return loc{}, false
	}

	for i := range b.Instrs {
		instr := &b.Instrs[i]

		// Check original uses.
		if check != nil && instr.OrigUses != nil {
			for ui, t := range instr.OrigUses {
				if t == ir.NoTemp {
					continue
				}
				l, ok := locOf(instr.Uses[ui])
				if !ok {
					check(fmt.Errorf("%v: use %d of %s not in a location", instr.Op, ui, p.TempName(t)))
					continue
				}
				if v, ok := st[l]; !ok || v != t {
					if !ok && must != nil && !must.Contains(int(t)) {
						// Maybe-undefined and the location's content is
						// unknown (the paths disagree about it): the
						// original program reads the zero-initialized
						// temp file here, so the location check is
						// waived (see the package comment). If every
						// path instead agrees the location holds a
						// DIFFERENT temporary's value, the defined
						// paths are provably wrong and the error
						// stands.
						continue
					}
					have := "unknown"
					if ok {
						have = p.TempName(v)
					}
					check(fmt.Errorf("%v at pos %d: use of %s reads %v which holds %s",
						instr.Op, instr.Pos, p.TempName(t), l, have))
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
			for k := range st {
				if !k.isSlot && mach.CallerSaved(k.reg) {
					delete(st, k)
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
			sl, sok := locOf(src)
			dl, dok := locOf(dst)
			if !dok {
				break
			}
			if v, ok := st[sl]; sok && ok {
				st[dl] = v
			} else {
				delete(st, dl)
			}
		case instr.Op == ir.SpillSt && spillIsOriginal:
			// An original store of a fresh spill temporary: the slot
			// now holds that temporary's value (its use was checked
			// above).
			if l, ok := locOf(instr.Uses[1]); ok {
				st[l] = instr.OrigUses[0]
			}
		default:
			// Original computation (or a rewritten original move):
			// original defs produce fresh values of their temporaries.
			for di := range instr.Defs {
				l, ok := locOf(instr.Defs[di])
				var t ir.Temp = ir.NoTemp
				if instr.OrigDefs != nil {
					t = instr.OrigDefs[di]
				}
				if t == ir.NoTemp {
					// A write to machine state not tied to a temp. A
					// move still forwards its source's value.
					if ok {
						if instr.Op.IsMove() {
							if sl, sok := locOf(instr.Uses[0]); sok {
								if v, has := st[sl]; has {
									st[l] = v
									continue
								}
							}
						}
						delete(st, l)
					}
					continue
				}
				invalidate(t)
				if ok {
					st[l] = t
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
}
