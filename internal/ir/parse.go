package ir

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/target"
)

// ParseProgram reads the textual form produced by Printer.WriteProgram
// back into a Program. The accepted grammar (one item per line, "; ..."
// comments stripped):
//
//	program mem=<words> main=<name>
//	func <name>(<param> <class>, ...) {
//	<label>:
//	    <dst> = <op> <src>, <src>
//	    <op> <src>, ...
//	    br <src>, <label>, <label>
//	    jmp <label>
//	    ret
//	    [<dst> = ] call @<sym>(<reg>, ...)
//	}
//
// Operands: temporaries by name, registers as $<name> (using the
// machine's register names), integer and floating literals, and spill
// slots as [slot<N>:<owner>]. Temporary classes are inferred from opcode
// signatures; the paper's pipeline only parses pre-allocation IR but
// allocated code round-trips as well. Positions (Printer.Positions) are
// not accepted.
//
// A nil machine parses the machine-independent form a machless Printer
// emits: registers must be spelled $R<n> and are taken at face value
// (no bound check against a register file). It is the text analogue
// of an internal/irbin frame, which is how allocated programs move
// between nodes.
func ParseProgram(r io.Reader, mach *target.Machine) (*Program, error) {
	p := &parser{mach: mach, sc: bufio.NewScanner(r)}
	// Lines may be up to 1 MiB; the buffer starts small and grows only
	// for long lines, so a typical parse does not pay for the limit.
	p.sc.Buffer(nil, 1<<20)
	prog, err := p.program()
	if err != nil {
		return nil, fmt.Errorf("line %d: %w", p.lineNo, err)
	}
	return prog, nil
}

// ParseProgramString is ParseProgram over a string.
func ParseProgramString(s string, mach *target.Machine) (*Program, error) {
	return ParseProgram(strings.NewReader(s), mach)
}

type parser struct {
	mach   *target.Machine
	sc     *bufio.Scanner
	lineNo int
	peeked *string

	regByName map[string]target.Reg
}

func (p *parser) next() (string, bool) {
	if p.peeked != nil {
		l := *p.peeked
		p.peeked = nil
		return l, true
	}
	for p.sc.Scan() {
		p.lineNo++
		line := p.sc.Text()
		if i := strings.Index(line, ";"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		return line, true
	}
	return "", false
}

func (p *parser) unread(line string) { p.peeked = &line }

func (p *parser) regNames() map[string]target.Reg {
	if p.regByName == nil {
		if p.mach == nil {
			p.regByName = map[string]target.Reg{}
			return p.regByName
		}
		p.regByName = make(map[string]target.Reg, p.mach.NumRegs())
		for r := 0; r < p.mach.NumRegs(); r++ {
			p.regByName[p.mach.RegName(target.Reg(r))] = target.Reg(r)
			p.regByName[fmt.Sprintf("R%d", r)] = target.Reg(r) // machless printer form
		}
	}
	return p.regByName
}

func (p *parser) program() (*Program, error) {
	head, ok := p.next()
	if !ok {
		return nil, fmt.Errorf("empty input")
	}
	var mem int
	var main string
	if _, err := fmt.Sscanf(head, "program mem=%d main=%s", &mem, &main); err != nil {
		return nil, fmt.Errorf("bad program header %q: %v", head, err)
	}
	prog := NewProgram(mem)
	prog.Main = main
	for {
		line, ok := p.next()
		if !ok {
			break
		}
		if !strings.HasPrefix(line, "func ") {
			return nil, fmt.Errorf("expected func, got %q", line)
		}
		proc, err := p.proc(line)
		if err != nil {
			return nil, err
		}
		if prog.Proc(proc.Name) != nil {
			return nil, fmt.Errorf("duplicate procedure %q", proc.Name)
		}
		prog.AddProc(proc)
	}
	if prog.Proc(prog.Main) == nil {
		return nil, fmt.Errorf("main procedure %q not defined", prog.Main)
	}
	return prog, nil
}

// procState tracks name→temp and label→block resolution for one proc.
type procState struct {
	proc   *Proc
	temps  map[string]Temp
	blocks map[string]*Block
	// pendingEdges are (block, label) pairs wired after all blocks exist.
	pendingEdges []pendingEdge
	maxSlot      int
}

type pendingEdge struct {
	from   *Block
	labels []string
}

func (p *parser) proc(head string) (*Proc, error) {
	open := strings.Index(head, "(")
	closeP := strings.LastIndex(head, ")")
	if open < 0 || closeP < open || !strings.HasSuffix(head, "{") {
		return nil, fmt.Errorf("bad func header %q", head)
	}
	name := strings.TrimSpace(head[len("func "):open])
	st := &procState{
		proc:   NewProc(name),
		temps:  map[string]Temp{},
		blocks: map[string]*Block{},
		// No slot operand: the frame needs no slots, as in a program
		// built in memory.
		maxSlot: -1,
	}
	// Parameters: "x int, f float".
	params := strings.TrimSpace(head[open+1 : closeP])
	if params != "" {
		for _, piece := range strings.Split(params, ",") {
			fields := strings.Fields(strings.TrimSpace(piece))
			if len(fields) != 2 {
				return nil, fmt.Errorf("bad parameter %q", piece)
			}
			cls := target.ClassInt
			switch fields[1] {
			case "int":
			case "float":
				cls = target.ClassFloat
			default:
				return nil, fmt.Errorf("bad parameter class %q", fields[1])
			}
			t := st.proc.NewTemp(cls, fields[0])
			st.temps[fields[0]] = t
			st.proc.Params = append(st.proc.Params, t)
		}
	}

	var cur *Block
	for {
		line, ok := p.next()
		if !ok {
			return nil, fmt.Errorf("unexpected EOF in func %s", name)
		}
		if line == "}" {
			break
		}
		if label, isLabel := strings.CutSuffix(line, ":"); isLabel && !strings.ContainsAny(label, " \t=") {
			cur = st.block(label)
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("instruction before first label: %q", line)
		}
		in, err := p.instr(st, line)
		if err != nil {
			return nil, fmt.Errorf("in %q: %w", line, err)
		}
		cur.Instrs = append(cur.Instrs, in)
	}
	// Wire deferred edges.
	for _, pe := range st.pendingEdges {
		for _, l := range pe.labels {
			to, ok := st.blocks[l]
			if !ok {
				return nil, fmt.Errorf("func %s: undefined label %q", name, l)
			}
			AddEdge(pe.from, to)
		}
	}
	if st.proc.NumSlots < st.maxSlot+1 {
		st.proc.NumSlots = st.maxSlot + 1
	}
	return st.proc, nil
}

func (st *procState) block(label string) *Block {
	if b, ok := st.blocks[label]; ok {
		return b
	}
	b := st.proc.NewBlock(label)
	st.blocks[label] = b
	return b
}

// opByName maps mnemonics back to opcodes.
var opByName = func() map[string]Op {
	m := make(map[string]Op, int(numOps))
	for op := Op(0); op < numOps; op++ {
		m[op.String()] = op
	}
	return m
}()

func (p *parser) instr(st *procState, line string) (Instr, error) {
	cur := st.blocks // for closures
	_ = cur

	// Terminators with labels.
	if rest, ok := strings.CutPrefix(line, "jmp "); ok {
		st.pendingEdges = append(st.pendingEdges,
			pendingEdge{from: lastBlock(st), labels: []string{strings.TrimSpace(rest)}})
		return Instr{Op: Jmp}, nil
	}
	if rest, ok := strings.CutPrefix(line, "br "); ok {
		parts := splitOperands(rest)
		if len(parts) != 3 {
			return Instr{}, fmt.Errorf("br wants cond and two labels")
		}
		cond, err := p.operand(st, parts[0], target.ClassInt, Br, true)
		if err != nil {
			return Instr{}, err
		}
		st.pendingEdges = append(st.pendingEdges,
			pendingEdge{from: lastBlock(st), labels: []string{parts[1], parts[2]}})
		return Instr{Op: Br, Uses: []Operand{cond}}, nil
	}
	if line == "ret" {
		return Instr{Op: Ret}, nil
	}

	// Optional destination.
	var dstTok string
	body := line
	if i := strings.Index(line, " = "); i >= 0 {
		dstTok = strings.TrimSpace(line[:i])
		body = strings.TrimSpace(line[i+3:])
	}

	// Calls.
	if rest, ok := strings.CutPrefix(body, "call "); ok {
		open := strings.Index(rest, "(")
		if open < 0 || !strings.HasSuffix(rest, ")") {
			return Instr{}, fmt.Errorf("bad call syntax")
		}
		sym := strings.TrimSpace(rest[:open])
		sym = strings.TrimPrefix(sym, "@")
		in := Instr{Op: Call, Uses: []Operand{SymOp(sym)}}
		args := strings.TrimSpace(rest[open+1 : len(rest)-1])
		if args != "" {
			for _, a := range splitOperands(args) {
				o, err := p.operand(st, a, anyClass, Call, true)
				if err != nil {
					return Instr{}, err
				}
				if o.Kind != KindReg {
					return Instr{}, fmt.Errorf("call argument %q must be a register", a)
				}
				in.Uses = append(in.Uses, o)
			}
		}
		if dstTok != "" {
			o, err := p.operand(st, dstTok, anyClass, Call, false)
			if err != nil {
				return Instr{}, err
			}
			if o.Kind != KindReg {
				return Instr{}, fmt.Errorf("call result %q must be a register", dstTok)
			}
			in.Defs = []Operand{o}
		}
		return in, nil
	}

	// Regular ops: "<op> <src>, <src>".
	fields := strings.SplitN(body, " ", 2)
	op, ok := opByName[fields[0]]
	if !ok {
		return Instr{}, fmt.Errorf("unknown opcode %q", fields[0])
	}
	// Control flow and calls have dedicated forms above; reaching them
	// here means a malformed line ("jmp" with no label, "call" with no
	// argument list, "ret x") that would build unprintable IR.
	if op == Call || op.IsTerminator() {
		return Instr{}, fmt.Errorf("malformed %s instruction", fields[0])
	}
	info := &opTable[op]
	in := Instr{Op: op}
	if len(fields) > 1 {
		for i, tok := range splitOperands(fields[1]) {
			want := anyClass
			if info.uses != nil && i < len(info.uses) {
				want = info.uses[i]
			}
			o, err := p.operand(st, tok, want, op, true)
			if err != nil {
				return Instr{}, err
			}
			in.Uses = append(in.Uses, o)
		}
	}
	if dstTok != "" {
		want := anyClass
		if len(info.defs) > 0 {
			want = info.defs[0]
		}
		o, err := p.operand(st, dstTok, want, op, false)
		if err != nil {
			return Instr{}, err
		}
		in.Defs = []Operand{o}
	}
	return in, nil
}

// lastBlock returns the block currently being filled (the newest one).
func lastBlock(st *procState) *Block {
	return st.proc.Blocks[len(st.proc.Blocks)-1]
}

func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func (p *parser) operand(st *procState, tok string, want target.Class, op Op, isUse bool) (Operand, error) {
	switch {
	case tok == "_":
		return Operand{}, fmt.Errorf("blank operand not supported")
	case strings.HasPrefix(tok, "$"):
		name := tok[1:]
		r, ok := p.regNames()[name]
		if !ok {
			// Machless parse: accept the machine-independent $R<n> form
			// the machless Printer produces, taking the index at face
			// value. With a machine, its name table is authoritative.
			if p.mach == nil {
				if n, err := strconv.Atoi(strings.TrimPrefix(name, "R")); err == nil && strings.HasPrefix(name, "R") && n >= 0 {
					return RegOp(target.Reg(n)), nil
				}
			}
			return Operand{}, fmt.Errorf("unknown register %q", tok)
		}
		return RegOp(r), nil
	case strings.HasPrefix(tok, "[slot"):
		// [slot<N>:<owner>]
		inner := strings.TrimSuffix(strings.TrimPrefix(tok, "[slot"), "]")
		colon := strings.Index(inner, ":")
		if colon < 0 {
			return Operand{}, fmt.Errorf("bad slot operand %q", tok)
		}
		idx, err := strconv.Atoi(inner[:colon])
		if err != nil {
			return Operand{}, fmt.Errorf("bad slot index in %q", tok)
		}
		if idx > st.maxSlot {
			st.maxSlot = idx
		}
		owner := inner[colon+1:]
		t := NoTemp
		if owner != "<none>" {
			t = st.lookupOrMake(owner, target.ClassInt)
		}
		return SlotOp(idx, t), nil
	case looksNumeric(tok):
		if want == target.ClassFloat || strings.ContainsAny(tok, ".eE") && !strings.HasPrefix(tok, "0x") {
			f, err := strconv.ParseFloat(tok, 64)
			if err == nil {
				if want == target.ClassFloat || op == FLdi {
					return FImmOp(f), nil
				}
			}
		}
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(tok, 64)
			if ferr != nil {
				return Operand{}, fmt.Errorf("bad literal %q", tok)
			}
			return FImmOp(f), nil
		}
		return ImmOp(v), nil
	default:
		cls := target.ClassInt
		if want == target.ClassFloat {
			cls = target.ClassFloat
		}
		return TempOp(st.lookupOrMake(tok, cls)), nil
	}
}

func (st *procState) lookupOrMake(name string, cls target.Class) Temp {
	if t, ok := st.temps[name]; ok {
		return t
	}
	t := st.proc.NewTemp(cls, name)
	st.temps[name] = t
	return t
}

func looksNumeric(tok string) bool {
	if tok == "" {
		return false
	}
	c := tok[0]
	return c == '-' || c == '+' || (c >= '0' && c <= '9')
}
