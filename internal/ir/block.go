package ir

import (
	"fmt"
	"slices"

	"repro/internal/scratch"
	"repro/internal/target"
)

// Block is a basic block: a straight-line instruction sequence ending in a
// single terminator. Successor order is significant: Br takes Succs[0]
// when its condition is non-zero and Succs[1] otherwise; Jmp takes
// Succs[0].
type Block struct {
	ID     int
	Name   string
	Instrs []Instr
	Succs  []*Block
	Preds  []*Block

	// Order is the block's index in the layout (linear) order, assigned
	// by Proc.Renumber. Depth is the loop nesting depth, assigned by
	// cfg.ComputeLoopDepths; the spill heuristics weight references by
	// it, as both allocators in the paper do.
	Order int
	Depth int
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := &b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Body returns the instructions before the terminator.
func (b *Block) Body() []Instr {
	if t := b.Terminator(); t != nil {
		return b.Instrs[:len(b.Instrs)-1]
	}
	return b.Instrs
}

func (b *Block) String() string {
	if b == nil {
		return "<nil-block>"
	}
	return b.Name
}

// Proc is one procedure: a CFG plus the temp tables. Blocks[0] is the
// entry block, and the slice order is the layout (linear) order the scan
// follows.
type Proc struct {
	Name   string
	Blocks []*Block

	// Params lists the formal parameter temporaries in order. The
	// builder emits the convention moves from parameter registers.
	Params []Temp

	tempClass []target.Class
	tempName  []string

	// NumSlots is the number of stack slots the frame needs after
	// allocation (spill homes plus callee-save slots).
	NumSlots int

	nextBlockID int
}

// NewProc returns an empty procedure.
func NewProc(name string) *Proc {
	return &Proc{Name: name}
}

// NewTemp introduces a fresh temporary of class c with a diagnostic name.
// An empty name is replaced by "tN".
func (p *Proc) NewTemp(c target.Class, name string) Temp {
	t := Temp(len(p.tempClass))
	if name == "" {
		name = fmt.Sprintf("t%d", t)
	}
	p.tempClass = append(p.tempClass, c)
	p.tempName = append(p.tempName, name)
	return t
}

// NumTemps returns the number of temporaries created so far.
func (p *Proc) NumTemps() int { return len(p.tempClass) }

// TempClass returns the register file t belongs to.
func (p *Proc) TempClass(t Temp) target.Class { return p.tempClass[t] }

// TempName returns the diagnostic name of t.
func (p *Proc) TempName(t Temp) string {
	if t == NoTemp {
		return "<none>"
	}
	return p.tempName[t]
}

// NewBlock appends a fresh empty block to the layout order. Its Order is
// its layout index, as Renumber would assign it.
func (p *Proc) NewBlock(name string) *Block {
	b := &Block{ID: p.nextBlockID, Name: name, Order: len(p.Blocks)}
	if name == "" {
		b.Name = fmt.Sprintf("b%d", b.ID)
	}
	p.nextBlockID++
	p.Blocks = append(p.Blocks, b)
	return b
}

// Entry returns the entry block.
func (p *Proc) Entry() *Block {
	if len(p.Blocks) == 0 {
		return nil
	}
	return p.Blocks[0]
}

// AddEdge records a CFG edge from b to s, appending to b.Succs and
// s.Preds. Terminator construction uses it; prefer the builder API.
func AddEdge(b, s *Block) {
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// Renumber assigns Block.Order in layout order and Instr.Pos sequentially
// across the whole procedure, and returns the total instruction count.
// Positions are the coordinate system for lifetimes and holes.
func (p *Proc) Renumber() int {
	pos := int32(0)
	for i, b := range p.Blocks {
		b.Order = i
		for j := range b.Instrs {
			b.Instrs[j].Pos = pos
			pos++
		}
	}
	return int(pos)
}

// NumInstrs returns the total instruction count.
func (p *Proc) NumInstrs() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// SplitEdge breaks the edge from pred to succ by inserting a fresh block
// containing only a Jmp to succ, and returns the new block. The paper's
// resolution phase splits critical edges to get a safe location for
// resolution code (§2.4, footnote 1). The new block is appended to the
// layout order; callers that depend on positions must Renumber afterwards.
func (p *Proc) SplitEdge(pred, succ *Block) *Block {
	nb := p.NewBlock(fmt.Sprintf("split_%s_%s", pred.Name, succ.Name))
	nb.Instrs = []Instr{{Op: Jmp}}
	nb.Succs = []*Block{succ}
	nb.Preds = []*Block{pred}
	replaced := false
	for i, s := range pred.Succs {
		if s == succ && !replaced {
			pred.Succs[i] = nb
			replaced = true
		}
	}
	if !replaced {
		panic(fmt.Sprintf("ir: SplitEdge(%s,%s): no such edge", pred.Name, succ.Name))
	}
	replaced = false
	for i, q := range succ.Preds {
		if q == pred && !replaced {
			succ.Preds[i] = nb
			replaced = true
		}
	}
	if !replaced {
		panic(fmt.Sprintf("ir: SplitEdge(%s,%s): succ missing pred", pred.Name, succ.Name))
	}
	return nb
}

// NewSlot reserves a fresh stack slot and returns its index.
func (p *Proc) NewSlot() int {
	s := p.NumSlots
	p.NumSlots++
	return s
}

// Clone returns a deep copy of the procedure in storage of its own, sized
// exactly: every block, edge list, instruction, operand and orig-temp
// entry of the copy lives in one backing array per kind, so a copy costs
// a handful of allocations instead of several per instruction. The
// allocation pipeline makes this copy once per procedure, after
// allocation, out of its pooled working clone (ProcArena); it is the
// only heap copy the pipeline hands back.
func (p *Proc) Clone() *Proc {
	q := new(Proc)
	var a ProcArena
	a.copy(q, p)
	return q
}

// ProcArena is reusable storage for working copies of procedures, one
// backing array per node kind in the manner of the binary decoder's
// arena. Clone and Proc.Clone share one copy routine: the arena keeps
// its arrays from one copy to the next, Proc.Clone starts from empty
// ones. The zero value is ready to use; one arena serves one goroutine.
type ProcArena struct {
	proc    Proc
	blocks  []Block
	ptrs    []*Block // the layout order, then every block's successors and predecessors
	instrs  []Instr
	ops     []Operand
	origs   []Temp
	params  []Temp
	classes []target.Class
	names   []string
}

// Clone copies p into the arena and returns the copy, which is valid
// until the arena's next Clone. Every block, instruction list and
// operand list of the copy is carved with full capacity (three-index
// slicing), so appending to one — a block growing spill code, an
// operand list being extended — copies out instead of clobbering a
// neighbor.
func (a *ProcArena) Clone(p *Proc) *Proc {
	a.copy(&a.proc, p)
	return &a.proc
}

// copy makes q a deep copy of p in a's arrays, growing them as needed.
// Edges are mapped through Block.Order, the layout index that NewBlock,
// Renumber and the binary decoder assign; a block whose Order is stale
// (one built by hand) is found by a scan of the layout instead.
func (a *ProcArena) copy(q, p *Proc) {
	nb, nInstr, nOps, nOrig, nEdges := len(p.Blocks), 0, 0, 0, 0
	for _, b := range p.Blocks {
		nInstr += len(b.Instrs)
		nEdges += len(b.Succs) + len(b.Preds)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			nOps += len(in.Defs) + len(in.Uses)
			nOrig += len(in.OrigDefs) + len(in.OrigUses)
		}
	}
	// The pointer-bearing arrays drop what a larger earlier copy left
	// past the new length, so a small procedure does not keep a large
	// one's arrays or strings (names alias a decoded request) alive.
	a.blocks = scratch.Resize(a.blocks, nb)
	a.ptrs = scratch.Resize(a.ptrs, nb+nEdges)
	a.instrs = scratch.Resize(a.instrs, nInstr)
	a.ops = scratch.Resize(a.ops, nOps)
	a.origs = scratch.Grow(a.origs, nOrig)
	a.params = scratch.Grow(a.params, len(p.Params))
	a.classes = scratch.Grow(a.classes, len(p.tempClass))
	a.names = scratch.Resize(a.names, len(p.tempName))
	copy(a.params, p.Params)
	copy(a.classes, p.tempClass)
	copy(a.names, p.tempName)
	*q = Proc{
		Name:        p.Name,
		Blocks:      a.ptrs[:nb:nb],
		Params:      a.params,
		tempClass:   a.classes,
		tempName:    a.names,
		NumSlots:    p.NumSlots,
		nextBlockID: p.nextBlockID,
	}

	instrs, ops, origs, edges := a.instrs, a.ops, a.origs, a.ptrs[nb:]
	for bi, b := range p.Blocks {
		nb := &a.blocks[bi]
		*nb = Block{ID: b.ID, Name: b.Name, Order: b.Order, Depth: b.Depth}
		nb.Instrs, instrs = carve(instrs, b.Instrs)
		for i := range nb.Instrs {
			ni := &nb.Instrs[i]
			ni.Defs, ops = carve(ops, ni.Defs)
			ni.Uses, ops = carve(ops, ni.Uses)
			ni.OrigUses, origs = carve(origs, ni.OrigUses)
			ni.OrigDefs, origs = carve(origs, ni.OrigDefs)
		}
		nb.Succs, edges = a.mapEdges(edges, b.Succs, p)
		nb.Preds, edges = a.mapEdges(edges, b.Preds, p)
		q.Blocks[bi] = nb
	}
}

// carve copies src to the front of buf and returns the copy, with full
// capacity, and the rest of buf. A nil src stays nil.
func carve[T any](buf, src []T) (dst, rest []T) {
	if src == nil {
		return nil, buf
	}
	n := copy(buf, src)
	return buf[:n:n], buf[n:]
}

// mapEdges writes the copies of the blocks in src to the front of buf
// and returns them, with full capacity, and the rest of buf.
func (a *ProcArena) mapEdges(buf, src []*Block, p *Proc) (dst, rest []*Block) {
	if src == nil {
		return nil, buf
	}
	for i, b := range src {
		j := b.Order
		if j < 0 || j >= len(p.Blocks) || p.Blocks[j] != b {
			j = slices.Index(p.Blocks, b)
		}
		buf[i] = nil
		if j >= 0 {
			buf[i] = &a.blocks[j]
		}
	}
	n := len(src)
	return buf[:n:n], buf[n:]
}

// Program is a set of procedures plus the global memory image and the
// entry procedure name.
type Program struct {
	Procs  []*Proc
	byName map[string]*Proc

	// MemWords is the size of global memory in 64-bit words; MemInit
	// holds initial nonzero words.
	MemWords int
	MemInit  map[int]int64

	Main string
}

// NewProgram returns an empty program with memWords words of zeroed
// global memory.
func NewProgram(memWords int) *Program {
	return &Program{
		byName:   make(map[string]*Proc),
		MemWords: memWords,
		MemInit:  make(map[int]int64),
		Main:     "main",
	}
}

// AddProc registers a procedure.
func (pr *Program) AddProc(p *Proc) {
	if _, dup := pr.byName[p.Name]; dup {
		panic(fmt.Sprintf("ir: duplicate procedure %q", p.Name))
	}
	pr.Procs = append(pr.Procs, p)
	pr.byName[p.Name] = p
}

// Proc returns the procedure with the given name, or nil.
func (pr *Program) Proc(name string) *Proc { return pr.byName[name] }

// SetMem sets an initial memory word.
func (pr *Program) SetMem(addr int, v int64) {
	if addr < 0 || addr >= pr.MemWords {
		panic(fmt.Sprintf("ir: SetMem(%d) outside memory of %d words", addr, pr.MemWords))
	}
	pr.MemInit[addr] = v
}

// SetMemF sets an initial memory word to the bit pattern of a float.
func (pr *Program) SetMemF(addr int, v float64) {
	pr.SetMem(addr, int64(floatBits(v)))
}

// Clone deep-copies the program (procedures and memory image).
func (pr *Program) Clone() *Program {
	q := NewProgram(pr.MemWords)
	q.Main = pr.Main
	for a, v := range pr.MemInit {
		q.MemInit[a] = v
	}
	for _, p := range pr.Procs {
		q.AddProc(p.Clone())
	}
	return q
}
