package ir

import (
	"strings"
	"testing"

	"repro/internal/target"
)

func printProgram(prog *Program, mach *target.Machine) string {
	var sb strings.Builder
	(&Printer{Mach: mach}).WriteProgram(&sb, prog)
	return sb.String()
}

func TestParseSimpleProgram(t *testing.T) {
	mach := target.Tiny(6, 3)
	src := `
program mem=16 main=main

func main() {
entry:
    x = ldi 7
    y = mul x, 6
    c = cmplt y, 100
    br c, small, big
small:
    y = add y, 1
    jmp done
big:
    y = sub y, 1
    jmp done
done:
    $r0 = mov y
    ret
}
`
	prog, err := ParseProgramString(src, mach)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateProgram(prog, mach); err != nil {
		t.Fatal(err)
	}
	p := prog.Proc("main")
	if len(p.Blocks) != 4 {
		t.Fatalf("blocks = %d", len(p.Blocks))
	}
	entry := p.Entry()
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %d", len(entry.Succs))
	}
	if entry.Succs[0].Name != "small" || entry.Succs[1].Name != "big" {
		t.Fatal("branch targets wired wrong")
	}
	// No slot operand, no slots: the allocator numbers its spill slots
	// from NumSlots, as it does for the same program built in memory.
	if p.NumSlots != 0 {
		t.Errorf("NumSlots = %d, want 0", p.NumSlots)
	}
}

func TestParseCallAndFloats(t *testing.T) {
	mach := target.Alpha()
	src := `
program mem=8 main=main

func helper(a int, f float) {
entry:
    g = fadd f, 0.5
    r = cvtfi g
    r = add r, a
    $r0 = mov r
    ret
}

func main() {
entry:
    $r1 = ldi 3
    $f1 = fldi 2.25
    $r0 = call @helper($r1, $f1)
    out = mov $r0
    $r0 = mov out
    ret
}
`
	prog, err := ParseProgramString(src, mach)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateProgram(prog, mach); err != nil {
		t.Fatal(err)
	}
	h := prog.Proc("helper")
	if len(h.Params) != 2 {
		t.Fatalf("params = %d", len(h.Params))
	}
	if h.TempClass(h.Params[1]) != target.ClassFloat {
		t.Fatal("float param class lost")
	}
}

func TestParseErrors(t *testing.T) {
	mach := target.Tiny(6, 3)
	cases := map[string]string{
		"bad header":   "programme mem=8 main=main\n",
		"no main":      "program mem=8 main=main\n\nfunc f() {\nentry:\n    ret\n}\n",
		"bad label":    "program mem=8 main=main\n\nfunc main() {\nentry:\n    jmp nowhere\n}\n",
		"bad opcode":   "program mem=8 main=main\n\nfunc main() {\nentry:\n    x = frobnicate y\n    ret\n}\n",
		"bad register": "program mem=8 main=main\n\nfunc main() {\nentry:\n    x = mov $zz9\n    ret\n}\n",
	}
	for name, src := range cases {
		if _, err := ParseProgramString(src, mach); err == nil {
			t.Errorf("%s: parse accepted invalid input", name)
		}
	}
}

// TestRoundTrip prints a built program, parses it back, prints again, and
// requires a fixed point — the printer and parser agree on the grammar.
func TestRoundTrip(t *testing.T) {
	mach := target.Tiny(8, 4)
	b := NewBuilder(mach, 32)
	pb := b.NewProc("main")
	x := pb.IntTemp("x")
	f := pb.FloatTemp("f")
	acc := pb.IntTemp("acc")
	pb.Ldi(x, 5)
	pb.FLdi(f, 1.5)
	pb.Ldi(acc, 0)

	head := pb.Block("head")
	body := pb.Block("body")
	exit := pb.Block("exit")
	pb.Jmp(head)
	pb.StartBlock(head)
	c := pb.IntTemp("c")
	pb.Op2(CmpGT, c, TempOp(x), ImmOp(0))
	pb.Br(TempOp(c), body, exit)
	pb.StartBlock(body)
	pb.Op2(FMul, f, TempOp(f), FImmOp(1.25))
	fi := pb.IntTemp("fi")
	pb.Op1(CvtFI, fi, TempOp(f))
	pb.Op2(Add, acc, TempOp(acc), TempOp(fi))
	pb.St(TempOp(acc), ImmOp(0), 3)
	pb.Ld(fi, ImmOp(0), 3)
	pb.Call("getc", fi)
	pb.Op2(Sub, x, TempOp(x), ImmOp(1))
	pb.Jmp(head)
	pb.StartBlock(exit)
	pb.Ret(acc)

	first := printProgram(b.Prog, mach)
	parsed, err := ParseProgramString(first, mach)
	if err != nil {
		t.Fatalf("parse of printed program failed: %v\n%s", err, first)
	}
	second := printProgram(parsed, mach)
	if first != second {
		t.Fatalf("round trip not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if err := ValidateProgram(parsed, mach); err != nil {
		t.Fatal(err)
	}
}
