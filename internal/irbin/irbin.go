// Package irbin is the compact binary codec for ir.Program: the wire
// format behind the mmap streaming corpus (internal/corpus), the
// service's application/x-lsra-ir request bodies (internal/serve), and
// the in-memory result cache, whose entries hold an allocated program
// as one frame.
//
// The text form (ir.ParseProgram / ir.Printer) stays the human surface;
// this codec exists because the cold serve path was dominated by text
// parsing, not allocation — the exact bottleneck the paper never had.
// Design points:
//
//   - Versioned, length-prefixed frames: 4-byte magic, a version byte,
//     a uvarint payload length, then the payload. Frames are
//     self-delimiting, so a corpus file or request body can simply
//     concatenate them.
//   - Machine-less: physical registers travel as bare numbers (the
//     binary analogue of the text form's $R<n> spellings), so no
//     machine definition accompanies a program. MemInit and each
//     block's loop depth are included; the text form carries neither.
//     Version 2 added the depth, so an allocated program (which prints
//     "; depth=N" on loop blocks) prints identically after a round
//     trip.
//   - Zero-copy, arena-backed decode: Decode builds the program inside
//     a reusable Arena (the internal/scratch capacity-reuse machinery)
//     and every string aliases the input buffer (unsafe.String), so a
//     steady-state decode loop performs zero heap allocations. The
//     returned program is only valid until the arena's next Decode and
//     must not outlive the input buffer — programs decoded from an
//     mmap'd corpus must be dropped before the mapping is closed.
//
// Decode validates structure exhaustively (bounds, opcode/tag/kind/
// class ranges, index ranges, names and symbols that are UTF-8, as in
// the text form a JSON request carries), never trusting a length field
// further than the bytes that back it; semantic validity (terminator shape,
// register files, main's existence) remains ir.ValidateProgram's job,
// exactly as for the text parser.
package irbin

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"unicode/utf8"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/scratch"
	"repro/internal/target"
)

// Magic opens every frame.
const Magic = "LSIR"

// Version is the current wire version; Decode rejects others. Version
// 2 added each block's loop depth, which allocated code prints.
const Version = 2

// headerLen is the fixed prefix before the payload-length uvarint.
const headerLen = len(Magic) + 1

// AppendProgram appends prog's binary frame to buf and returns the
// extended slice. Encoding is canonical: MemInit is written in
// ascending address order, so decode→encode reaches a byte-for-byte
// fixed point.
func AppendProgram(buf []byte, prog *ir.Program) []byte {
	buf = append(buf, Magic...)
	buf = append(buf, Version)
	// The payload is built separately so its length can sit between
	// header and body; encode is the cold path, so the extra copy is
	// cheap next to zero-copy decode staying simple.
	payload := appendPayload(nil, prog)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// EncodeProgram returns prog's binary frame.
func EncodeProgram(prog *ir.Program) []byte { return AppendProgram(nil, prog) }

func appendPayload(buf []byte, prog *ir.Program) []byte {
	buf = binary.AppendUvarint(buf, uint64(prog.MemWords))
	buf = appendStr(buf, prog.Main)
	addrs := make([]int, 0, len(prog.MemInit))
	for a := range prog.MemInit {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)
	buf = binary.AppendUvarint(buf, uint64(len(addrs)))
	for _, a := range addrs {
		buf = binary.AppendUvarint(buf, uint64(a))
		buf = binary.AppendVarint(buf, prog.MemInit[a])
	}
	buf = binary.AppendUvarint(buf, uint64(len(prog.Procs)))
	for _, p := range prog.Procs {
		buf = appendProc(buf, p)
	}
	return buf
}

func appendProc(buf []byte, p *ir.Proc) []byte {
	buf = appendStr(buf, p.Name)
	buf = binary.AppendUvarint(buf, uint64(p.NumTemps()))
	for t := 0; t < p.NumTemps(); t++ {
		buf = append(buf, byte(p.TempClass(ir.Temp(t))))
		buf = appendStr(buf, p.TempName(ir.Temp(t)))
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Params)))
	for _, t := range p.Params {
		buf = binary.AppendUvarint(buf, uint64(t))
	}
	buf = binary.AppendUvarint(buf, uint64(p.NumSlots))
	buf = binary.AppendUvarint(buf, uint64(len(p.Blocks)))
	index := make(map[*ir.Block]int, len(p.Blocks))
	for i, b := range p.Blocks {
		index[b] = i
	}
	for _, b := range p.Blocks {
		buf = binary.AppendUvarint(buf, uint64(b.ID))
		buf = appendStr(buf, b.Name)
		buf = binary.AppendUvarint(buf, uint64(b.Depth))
		buf = binary.AppendUvarint(buf, uint64(len(b.Succs)))
		for _, s := range b.Succs {
			si, ok := index[s]
			if !ok {
				panic(fmt.Sprintf("irbin: block %s has successor outside its proc", b.Name))
			}
			buf = binary.AppendUvarint(buf, uint64(si))
		}
		buf = binary.AppendUvarint(buf, uint64(len(b.Instrs)))
		for i := range b.Instrs {
			buf = appendInstr(buf, &b.Instrs[i])
		}
	}
	return buf
}

func appendInstr(buf []byte, in *ir.Instr) []byte {
	buf = append(buf, byte(in.Op), byte(in.Tag))
	buf = binary.AppendUvarint(buf, uint64(len(in.Defs)))
	for i := range in.Defs {
		buf = appendOperand(buf, &in.Defs[i])
	}
	buf = binary.AppendUvarint(buf, uint64(len(in.Uses)))
	for i := range in.Uses {
		buf = appendOperand(buf, &in.Uses[i])
	}
	return buf
}

func appendOperand(buf []byte, o *ir.Operand) []byte {
	buf = append(buf, byte(o.Kind))
	switch o.Kind {
	case ir.KindNone:
	case ir.KindTemp:
		buf = binary.AppendUvarint(buf, uint64(o.Temp))
	case ir.KindReg:
		// Zigzag: hostile machine presets can surface sentinel registers.
		buf = binary.AppendVarint(buf, int64(o.Reg))
	case ir.KindImm:
		buf = binary.AppendVarint(buf, o.Imm)
	case ir.KindFImm:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.F))
	case ir.KindSlot:
		buf = binary.AppendUvarint(buf, uint64(o.Imm))
		buf = binary.AppendVarint(buf, int64(o.Temp)) // NoTemp = -1
	case ir.KindSym:
		buf = appendStr(buf, o.Sym)
	default:
		panic(fmt.Sprintf("irbin: unencodable operand kind %d", o.Kind))
	}
	return buf
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// FrameSize returns the total byte length of the frame opening data,
// without decoding its payload — enough to walk a stream of
// concatenated frames cheaply.
func FrameSize(data []byte) (int, error) {
	n, _, err := frameBounds(data)
	return n, err
}

// frameBounds validates the frame prefix and returns the total frame
// size and the payload start offset.
func frameBounds(data []byte) (total, payloadStart int, err error) {
	if len(data) < headerLen+1 {
		return 0, 0, fmt.Errorf("irbin: truncated frame header (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return 0, 0, fmt.Errorf("irbin: bad magic %q", data[:len(Magic)])
	}
	if v := data[len(Magic)]; v != Version {
		return 0, 0, fmt.Errorf("irbin: unsupported version %d (have %d)", v, Version)
	}
	plen, n := binary.Uvarint(data[headerLen:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("irbin: bad payload length")
	}
	payloadStart = headerLen + n
	rest := len(data) - payloadStart
	if plen > uint64(rest) {
		return 0, 0, fmt.Errorf("irbin: payload length %d exceeds remaining %d bytes", plen, rest)
	}
	return payloadStart + int(plen), payloadStart, nil
}

// Arena is the reusable decode storage: one backing array per node
// kind, grown to the largest program seen and carved with full-capacity
// sub-slices. A Decode invalidates the arena's previous program. Not
// safe for concurrent use — give each worker its own arena (the corpus
// bench and the service's decoder pool do).
type Arena struct {
	prog    *ir.Program
	procs   []ir.Proc
	blocks  []ir.Block
	bptrs   []*ir.Block
	instrs  []ir.Instr
	ops     []ir.Operand
	params  []ir.Temp
	classes []target.Class
	names   []string
	predCnt []int32
}

// NewArena returns an empty decode arena.
func NewArena() *Arena {
	a := &Arena{prog: ir.NewProgram(0)}
	return a
}

// counts is the pass-1 tally that sizes the arena before building.
type counts struct {
	procs, blocks, instrs, ops, params, temps, succs int
}

// dec is a bounds-checked cursor over one payload.
type dec struct {
	data []byte
	off  int
}

func (d *dec) u8() (byte, error) {
	if d.off >= len(d.data) {
		return 0, fmt.Errorf("irbin: truncated at byte %d", d.off)
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("irbin: bad uvarint at byte %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) varint() (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("irbin: bad varint at byte %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) f64() (float64, error) {
	if d.off+8 > len(d.data) {
		return 0, fmt.Errorf("irbin: truncated float at byte %d", d.off)
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return math.Float64frombits(v), nil
}

// strBytes reads a length-prefixed string and returns the raw bytes,
// still aliasing the payload.
func (d *dec) strBytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.data)-d.off) {
		return nil, fmt.Errorf("irbin: string length %d exceeds remaining input", n)
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// name reads a length-prefixed string and rejects it unless it is
// valid UTF-8: a name the text form cannot carry through a JSON request
// or response would make the binary and text bodies of one service
// diverge.
func (d *dec) name() error {
	b, err := d.strBytes()
	if err != nil {
		return err
	}
	if !utf8.Valid(b) {
		return fmt.Errorf("irbin: name %q is not valid UTF-8", b)
	}
	return nil
}

// count reads a collection length and sanity-bounds it: every element
// costs at least one payload byte, so a count beyond the remaining
// input is corrupt by construction (and must not size an allocation).
func (d *dec) count(what string) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.data)-d.off) {
		return 0, fmt.Errorf("irbin: %s count %d exceeds remaining input", what, n)
	}
	return int(n), nil
}

// unsafeString views b as a string without copying. Decoded programs
// alias the input buffer through these; the documented lifetime rule
// (program dies before buffer) makes this safe.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Decode reads one frame from the front of data into the arena and
// returns the program plus the frame's total byte length (so callers
// can walk concatenated frames). The program aliases both the arena
// and data: it is valid until the arena's next Decode, and must not
// outlive the buffer.
func (a *Arena) Decode(data []byte) (*ir.Program, int, error) {
	total, payloadStart, err := frameBounds(data)
	if err != nil {
		return nil, 0, err
	}
	payload := data[payloadStart:total]

	c, err := scan(payload)
	if err != nil {
		return nil, 0, err
	}
	a.grow(c)
	prog, err := a.build(payload, c)
	if err != nil {
		// scan validated everything build reads; reaching here is a
		// codec bug, not an input problem — but fail soft anyway.
		return nil, 0, err
	}
	return prog, total, nil
}

// DecodeProgram is a one-shot convenience over a fresh arena: the
// returned program shares nothing reusable but still aliases data.
func DecodeProgram(data []byte) (*ir.Program, error) {
	prog, _, err := NewArena().Decode(data)
	return prog, err
}

// scan is pass 1: full structural validation plus the node tally that
// sizes the arena. It walks every element (never multiplying
// unvalidated counts), so a hostile length field can at worst make it
// read to the end of the payload.
func scan(payload []byte) (counts, error) {
	var c counts
	d := &dec{data: payload}
	memWords, err := d.uvarint()
	if err != nil {
		return c, err
	}
	if memWords > math.MaxInt32 {
		return c, fmt.Errorf("irbin: absurd memory size %d words", memWords)
	}
	if err := d.name(); err != nil { // main
		return c, err
	}
	nMem, err := d.count("meminit")
	if err != nil {
		return c, err
	}
	for i := 0; i < nMem; i++ {
		addr, err := d.uvarint()
		if err != nil {
			return c, err
		}
		if addr >= memWords {
			return c, fmt.Errorf("irbin: meminit address %d outside %d words", addr, memWords)
		}
		if _, err := d.varint(); err != nil {
			return c, err
		}
	}
	nProcs, err := d.count("proc")
	if err != nil {
		return c, err
	}
	c.procs = nProcs
	for pi := 0; pi < nProcs; pi++ {
		if err := scanProc(d, &c); err != nil {
			return c, err
		}
	}
	if d.off != len(payload) {
		return c, fmt.Errorf("irbin: %d trailing payload bytes", len(payload)-d.off)
	}
	return c, nil
}

func scanProc(d *dec, c *counts) error {
	if err := d.name(); err != nil {
		return err
	}
	nTemps, err := d.count("temp")
	if err != nil {
		return err
	}
	c.temps += nTemps
	for i := 0; i < nTemps; i++ {
		cls, err := d.u8()
		if err != nil {
			return err
		}
		if int(cls) >= target.NumClasses {
			return fmt.Errorf("irbin: bad temp class %d", cls)
		}
		if err := d.name(); err != nil {
			return err
		}
	}
	nParams, err := d.count("param")
	if err != nil {
		return err
	}
	c.params += nParams
	for i := 0; i < nParams; i++ {
		t, err := d.uvarint()
		if err != nil {
			return err
		}
		if t >= uint64(nTemps) {
			return fmt.Errorf("irbin: param temp %d outside %d temps", t, nTemps)
		}
	}
	if _, err := d.uvarint(); err != nil { // numSlots
		return err
	}
	nBlocks, err := d.count("block")
	if err != nil {
		return err
	}
	c.blocks += nBlocks
	for bi := 0; bi < nBlocks; bi++ {
		if _, err := d.uvarint(); err != nil { // ID
			return err
		}
		if err := d.name(); err != nil {
			return err
		}
		depth, err := d.uvarint()
		if err != nil {
			return err
		}
		if depth > math.MaxInt32 {
			return fmt.Errorf("irbin: absurd loop depth %d", depth)
		}
		nSuccs, err := d.count("successor")
		if err != nil {
			return err
		}
		c.succs += nSuccs
		for si := 0; si < nSuccs; si++ {
			s, err := d.uvarint()
			if err != nil {
				return err
			}
			if s >= uint64(nBlocks) {
				return fmt.Errorf("irbin: successor %d outside %d blocks", s, nBlocks)
			}
		}
		nInstrs, err := d.count("instr")
		if err != nil {
			return err
		}
		c.instrs += nInstrs
		for ii := 0; ii < nInstrs; ii++ {
			if err := scanInstr(d, c, nTemps); err != nil {
				return err
			}
		}
	}
	return nil
}

func scanInstr(d *dec, c *counts, nTemps int) error {
	op, err := d.u8()
	if err != nil {
		return err
	}
	if int(op) >= ir.NumOps {
		return fmt.Errorf("irbin: bad opcode %d", op)
	}
	tag, err := d.u8()
	if err != nil {
		return err
	}
	if int(tag) >= ir.NumTags {
		return fmt.Errorf("irbin: bad tag %d", tag)
	}
	for part := 0; part < 2; part++ {
		n, err := d.count("operand")
		if err != nil {
			return err
		}
		c.ops += n
		for i := 0; i < n; i++ {
			if err := scanOperand(d, nTemps); err != nil {
				return err
			}
		}
	}
	return nil
}

func scanOperand(d *dec, nTemps int) error {
	kind, err := d.u8()
	if err != nil {
		return err
	}
	switch ir.Kind(kind) {
	case ir.KindNone:
		return nil
	case ir.KindTemp:
		t, err := d.uvarint()
		if err != nil {
			return err
		}
		if t >= uint64(nTemps) {
			return fmt.Errorf("irbin: operand temp %d outside %d temps", t, nTemps)
		}
		return nil
	case ir.KindReg:
		r, err := d.varint()
		if err != nil {
			return err
		}
		if r < math.MinInt16 || r > math.MaxInt16 {
			return fmt.Errorf("irbin: register %d outside int16", r)
		}
		return nil
	case ir.KindImm:
		_, err := d.varint()
		return err
	case ir.KindFImm:
		_, err := d.f64()
		return err
	case ir.KindSlot:
		if _, err := d.uvarint(); err != nil {
			return err
		}
		t, err := d.varint()
		if err != nil {
			return err
		}
		if t < int64(ir.NoTemp) || t >= int64(nTemps) {
			return fmt.Errorf("irbin: slot owner %d outside %d temps", t, nTemps)
		}
		return nil
	case ir.KindSym:
		return d.name()
	}
	return fmt.Errorf("irbin: bad operand kind %d", kind)
}

// grow sizes every arena backing array for the scanned program.
// Pointer-bearing arrays are cleared over their full capacity
// (scratch.GrowCleared) so a small decode cannot leave a large earlier
// input pinned through stale string headers or sub-slices.
func (a *Arena) grow(c counts) {
	a.procs = scratch.GrowCleared(a.procs, c.procs)
	a.blocks = scratch.GrowCleared(a.blocks, c.blocks)
	// Block pointer storage serves three roles: each proc's Blocks
	// slice, every Succs slice, and every Preds slice (one pred per
	// succ edge).
	a.bptrs = scratch.GrowCleared(a.bptrs, c.blocks+2*c.succs)
	a.instrs = scratch.GrowCleared(a.instrs, c.instrs)
	a.ops = scratch.GrowCleared(a.ops, c.ops)
	a.params = scratch.Grow(a.params, c.params)
	a.classes = scratch.Grow(a.classes, c.temps)
	a.names = scratch.GrowCleared(a.names, c.temps)
	a.predCnt = scratch.Grow(a.predCnt, c.blocks)
}

// build is pass 2: construct the program from the validated payload.
func (a *Arena) build(payload []byte, c counts) (*ir.Program, error) {
	d := &dec{data: payload}
	memWords, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	prog := a.prog
	prog.Reset(int(memWords))
	mainB, err := d.strBytes()
	if err != nil {
		return nil, err
	}
	prog.Main = unsafeString(mainB)
	nMem, err := d.count("meminit")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nMem; i++ {
		addr, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		prog.MemInit[int(addr)] = v
	}
	nProcs, err := d.count("proc")
	if err != nil {
		return nil, err
	}
	// Carve cursors into the arena arrays.
	var (
		procOff, blockOff, bptrOff int
		instrOff, opOff            int
		paramOff, tempOff          int
	)
	for pi := 0; pi < nProcs; pi++ {
		p := &a.procs[procOff]
		procOff++
		if err := a.buildProc(d, p, &blockOff, &bptrOff, &instrOff, &opOff, &paramOff, &tempOff); err != nil {
			return nil, err
		}
		if prog.Proc(p.Name) != nil {
			return nil, fmt.Errorf("irbin: duplicate procedure %q", p.Name)
		}
		prog.AddProc(p)
	}
	return prog, nil
}

func (a *Arena) buildProc(d *dec, p *ir.Proc, blockOff, bptrOff, instrOff, opOff, paramOff, tempOff *int) error {
	nameB, err := d.strBytes()
	if err != nil {
		return err
	}
	*p = ir.Proc{Name: unsafeString(nameB)}
	nTemps, err := d.count("temp")
	if err != nil {
		return err
	}
	classes := a.classes[*tempOff : *tempOff+nTemps : *tempOff+nTemps]
	names := a.names[*tempOff : *tempOff+nTemps : *tempOff+nTemps]
	*tempOff += nTemps
	for i := 0; i < nTemps; i++ {
		cls, err := d.u8()
		if err != nil {
			return err
		}
		classes[i] = target.Class(cls)
		nb, err := d.strBytes()
		if err != nil {
			return err
		}
		names[i] = unsafeString(nb)
	}
	p.SetTempTable(classes, names)
	nParams, err := d.count("param")
	if err != nil {
		return err
	}
	params := a.params[*paramOff : *paramOff+nParams : *paramOff+nParams]
	*paramOff += nParams
	for i := 0; i < nParams; i++ {
		t, err := d.uvarint()
		if err != nil {
			return err
		}
		params[i] = ir.Temp(t)
	}
	p.Params = params
	slots, err := d.uvarint()
	if err != nil {
		return err
	}
	p.NumSlots = int(slots)
	nBlocks, err := d.count("block")
	if err != nil {
		return err
	}
	blocks := a.blocks[*blockOff : *blockOff+nBlocks : *blockOff+nBlocks]
	*blockOff += nBlocks
	p.Blocks = a.bptrs[*bptrOff : *bptrOff+nBlocks : *bptrOff+nBlocks]
	*bptrOff += nBlocks
	maxID := -1
	for bi := 0; bi < nBlocks; bi++ {
		b := &blocks[bi]
		p.Blocks[bi] = b
		id, err := d.uvarint()
		if err != nil {
			return err
		}
		nameB, err := d.strBytes()
		if err != nil {
			return err
		}
		depth, err := d.uvarint()
		if err != nil {
			return err
		}
		// Order doubles as the block's local index until Renumber
		// reassigns it — the pred pass below leans on that.
		*b = ir.Block{ID: int(id), Name: unsafeString(nameB), Order: bi, Depth: int(depth)}
		if b.ID > maxID {
			maxID = b.ID
		}
		nSuccs, err := d.count("successor")
		if err != nil {
			return err
		}
		b.Succs = a.bptrs[*bptrOff : *bptrOff : *bptrOff+nSuccs]
		*bptrOff += nSuccs
		for si := 0; si < nSuccs; si++ {
			s, err := d.uvarint()
			if err != nil {
				return err
			}
			b.Succs = append(b.Succs, &blocks[s])
		}
		nInstrs, err := d.count("instr")
		if err != nil {
			return err
		}
		b.Instrs = a.instrs[*instrOff : *instrOff+nInstrs : *instrOff+nInstrs]
		*instrOff += nInstrs
		for ii := 0; ii < nInstrs; ii++ {
			// Pos stays zero, as after a text parse; Renumber assigns
			// the lifetime coordinate system when allocation runs.
			if err := a.buildInstr(d, &b.Instrs[ii], opOff); err != nil {
				return err
			}
		}
	}
	// Wire predecessors: count per block, carve exactly, then fill.
	// Every succ edge contributes one pred, so capacity is exact and
	// the appends below never allocate.
	predCnt := a.predCnt[:nBlocks]
	for i := range predCnt {
		predCnt[i] = 0
	}
	for bi := range blocks {
		for _, s := range blocks[bi].Succs {
			predCnt[s.Order]++
		}
	}
	for bi := range blocks {
		n := int(predCnt[bi])
		blocks[bi].Preds = a.bptrs[*bptrOff : *bptrOff : *bptrOff+n]
		*bptrOff += n
	}
	for bi := range blocks {
		b := &blocks[bi]
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
	p.SetNextBlockID(maxID + 1)
	return nil
}

func (a *Arena) buildInstr(d *dec, in *ir.Instr, opOff *int) error {
	op, err := d.u8()
	if err != nil {
		return err
	}
	tag, err := d.u8()
	if err != nil {
		return err
	}
	*in = ir.Instr{Op: ir.Op(op), Tag: ir.Tag(tag)}
	for part := 0; part < 2; part++ {
		n, err := d.count("operand")
		if err != nil {
			return err
		}
		ops := a.ops[*opOff : *opOff+n : *opOff+n]
		*opOff += n
		for i := 0; i < n; i++ {
			if err := buildOperand(d, &ops[i]); err != nil {
				return err
			}
		}
		if n == 0 {
			ops = nil
		}
		if part == 0 {
			in.Defs = ops
		} else {
			in.Uses = ops
		}
	}
	return nil
}

func buildOperand(d *dec, o *ir.Operand) error {
	kind, err := d.u8()
	if err != nil {
		return err
	}
	o.Kind = ir.Kind(kind)
	switch o.Kind {
	case ir.KindNone:
		*o = ir.Operand{}
	case ir.KindTemp:
		t, err := d.uvarint()
		if err != nil {
			return err
		}
		*o = ir.Operand{Kind: ir.KindTemp, Temp: ir.Temp(t)}
	case ir.KindReg:
		r, err := d.varint()
		if err != nil {
			return err
		}
		*o = ir.Operand{Kind: ir.KindReg, Reg: target.Reg(r)}
	case ir.KindImm:
		v, err := d.varint()
		if err != nil {
			return err
		}
		*o = ir.Operand{Kind: ir.KindImm, Imm: v}
	case ir.KindFImm:
		f, err := d.f64()
		if err != nil {
			return err
		}
		*o = ir.Operand{Kind: ir.KindFImm, F: f}
	case ir.KindSlot:
		s, err := d.uvarint()
		if err != nil {
			return err
		}
		t, err := d.varint()
		if err != nil {
			return err
		}
		*o = ir.Operand{Kind: ir.KindSlot, Imm: int64(s), Temp: ir.Temp(t)}
	case ir.KindSym:
		b, err := d.strBytes()
		if err != nil {
			return err
		}
		*o = ir.Operand{Kind: ir.KindSym, Sym: unsafeString(b)}
	default:
		return fmt.Errorf("irbin: bad operand kind %d", kind)
	}
	return nil
}
