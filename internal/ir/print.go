package ir

import (
	"io"
	"strconv"
	"strings"
	"sync"

	"repro/internal/target"
)

// Printer renders procedures and programs in a stable textual form. When
// Mach is non-nil physical registers print with their machine names;
// otherwise as R<n>.
type Printer struct {
	Mach *target.Machine
	// Tags, when set, annotates allocator-inserted instructions with
	// their spill classification.
	Tags bool
	// Positions, when set, prefixes instructions with their linear
	// position.
	Positions bool
}

// printBufs recycles the buffers WriteProc and WriteProgram render
// into, so a warm printer grows nothing but its writer.
var printBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendOperand appends the rendering of one operand of p.
func (pr *Printer) appendOperand(buf []byte, p *Proc, o Operand) []byte {
	switch o.Kind {
	case KindNone:
		return append(buf, '_')
	case KindTemp:
		return append(buf, p.TempName(o.Temp)...)
	case KindReg:
		if pr.Mach != nil {
			return append(append(buf, '$'), pr.Mach.RegName(o.Reg)...)
		}
		return strconv.AppendInt(append(buf, "$R"...), int64(o.Reg), 10)
	case KindImm:
		return strconv.AppendInt(buf, o.Imm, 10)
	case KindFImm:
		return strconv.AppendFloat(buf, o.F, 'g', -1, 64)
	case KindSlot:
		buf = strconv.AppendInt(append(buf, "[slot"...), o.Imm, 10)
		return append(append(append(buf, ':'), p.TempName(o.Temp)...), ']')
	case KindSym:
		return append(append(buf, '@'), o.Sym...)
	}
	return strconv.AppendUint(append(buf, "?kind"...), uint64(o.Kind), 10)
}

// appendOperands appends ops separated by ", ".
func (pr *Printer) appendOperands(buf []byte, p *Proc, ops []Operand) []byte {
	for i, o := range ops {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = pr.appendOperand(buf, p, o)
	}
	return buf
}

// appendInstr appends the rendering of one instruction of b (without a
// trailing newline).
func (pr *Printer) appendInstr(buf []byte, p *Proc, b *Block, in *Instr) []byte {
	if pr.Positions {
		pos := strconv.AppendInt(nil, int64(in.Pos), 10)
		for n := len(pos); n < 4; n++ {
			buf = append(buf, ' ')
		}
		buf = append(append(buf, pos...), ": "...)
	}
	switch in.Op {
	case Jmp:
		buf = append(append(buf, "jmp "...), b.Succs[0].Name...)
	case Br:
		buf = pr.appendOperand(append(buf, "br "...), p, in.Uses[0])
		buf = append(append(buf, ", "...), b.Succs[0].Name...)
		buf = append(append(buf, ", "...), b.Succs[1].Name...)
	case Ret:
		buf = append(buf, "ret"...)
	case Call:
		if len(in.Defs) > 0 {
			buf = append(pr.appendOperand(buf, p, in.Defs[0]), " = "...)
		}
		buf = pr.appendOperand(append(buf, "call "...), p, in.Uses[0])
		buf = append(pr.appendOperands(append(buf, '('), p, in.Uses[1:]), ')')
	default:
		buf = pr.appendOperands(buf, p, in.Defs)
		if len(in.Defs) > 0 {
			buf = append(buf, " = "...)
		}
		buf = append(buf, in.Op.String()...)
		if len(in.Uses) > 0 {
			buf = pr.appendOperands(append(buf, ' '), p, in.Uses)
		}
	}
	if pr.Tags && in.Tag != TagNone {
		buf = append(append(buf, "  ; "...), in.Tag.String()...)
	}
	return buf
}

// appendProc appends the rendering of the whole procedure.
func (pr *Printer) appendProc(buf []byte, p *Proc) []byte {
	buf = append(append(buf, "func "...), p.Name...)
	buf = append(buf, '(')
	for i, t := range p.Params {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = append(append(append(buf, p.TempName(t)...), ' '), p.TempClass(t).String()...)
	}
	buf = append(buf, ") {\n"...)
	for _, b := range p.Blocks {
		buf = append(append(buf, b.Name...), ':')
		if b.Depth > 0 {
			buf = strconv.AppendInt(append(buf, "  ; depth="...), int64(b.Depth), 10)
		}
		buf = append(buf, '\n')
		for i := range b.Instrs {
			buf = append(pr.appendInstr(append(buf, "    "...), p, b, &b.Instrs[i]), '\n')
		}
	}
	return append(buf, "}\n"...)
}

// appendProgram appends the rendering of every procedure in the program.
func (pr *Printer) appendProgram(buf []byte, prog *Program) []byte {
	buf = strconv.AppendInt(append(buf, "program mem="...), int64(prog.MemWords), 10)
	buf = append(append(append(buf, " main="...), prog.Main...), '\n')
	for _, p := range prog.Procs {
		buf = pr.appendProc(append(buf, '\n'), p)
	}
	return buf
}

// write renders into a pooled buffer with render and writes it to w in
// one call.
func write(w io.Writer, render func([]byte) []byte) {
	buf := printBufs.Get().(*[]byte)
	*buf = render((*buf)[:0])
	_, _ = w.Write(*buf)
	printBufs.Put(buf)
}

// WriteProc renders the whole procedure.
func (pr *Printer) WriteProc(w io.Writer, p *Proc) {
	write(w, func(buf []byte) []byte { return pr.appendProc(buf, p) })
}

// ProcString renders p with default options.
func ProcString(p *Proc) string {
	var sb strings.Builder
	(&Printer{}).WriteProc(&sb, p)
	return sb.String()
}

// WriteProgram renders every procedure in the program.
func (pr *Printer) WriteProgram(w io.Writer, prog *Program) {
	write(w, func(buf []byte) []byte { return pr.appendProgram(buf, prog) })
}
