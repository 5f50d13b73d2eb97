package ir_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
)

// TestParseAllocationBound guards the parser's per-call heap cost on a
// typical service request: a generated program of about 5 KB must
// parse in well under the 1 MiB the line scanner may grow to.
func TestParseAllocationBound(t *testing.T) {
	mach, err := target.Preset("x86-8")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	(&ir.Printer{Mach: mach}).WriteProgram(&sb, progs.Random(mach, progs.DefaultGen(9)))
	text := sb.String()
	if len(text) < 3<<10 || len(text) > 8<<10 {
		t.Fatalf("generated program is %d bytes, want about 5 KB", len(text))
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ir.ParseProgramString(text, mach); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 256<<10 {
		t.Errorf("parsing a %d-byte program allocates %d KiB, want < 256 KiB", len(text), per>>10)
	}
}

// TestParseRejectsOverlongLine keeps the 1 MiB line limit: the scanner
// starts small but must not grow past it.
func TestParseRejectsOverlongLine(t *testing.T) {
	text := "program mem=8 main=main\n; " + strings.Repeat("x", 1<<20) + "\nfunc main() {\nentry:\n    ret\n}\n"
	if _, err := ir.ParseProgramString(text, nil); err == nil {
		t.Fatal("parse accepted a line over 1 MiB")
	}
	// Just under the limit still parses.
	text = "program mem=8 main=main\n; " + strings.Repeat("x", 1<<20-8) + "\nfunc main() {\nentry:\n    ret\n}\n"
	if _, err := ir.ParseProgramString(text, nil); err != nil {
		t.Fatalf("parse rejected a line under 1 MiB: %v", err)
	}
}
