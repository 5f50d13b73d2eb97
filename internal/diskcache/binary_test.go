package diskcache

import (
	"strings"
	"testing"

	regalloc "repro"
	"repro/internal/ir"
	"repro/internal/irbin"
)

// TestBinaryWireRoundTrip requires an allocated program to come back
// from the wire form printing exactly as the engine's output printed,
// loop-depth annotations included.
func TestBinaryWireRoundTrip(t *testing.T) {
	key, out, rep := allocate(t, 19)
	mach := regalloc.Tiny(6, 4)
	data, err := Encode(key, &regalloc.CachedAllocation{Frame: irbin.EncodeProgram(out), Report: rep})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), magic) {
		t.Fatalf("entry does not open with %q", magic)
	}
	_, got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := irbin.DecodeProgram(got.Frame)
	if err != nil {
		t.Fatal(err)
	}
	var want, have strings.Builder
	(&ir.Printer{Mach: mach}).WriteProgram(&want, out)
	(&ir.Printer{Mach: mach}).WriteProgram(&have, prog)
	if !strings.Contains(want.String(), "; depth=") {
		t.Fatal("test program has no loop blocks")
	}
	if want.String() != have.String() {
		t.Errorf("wire form changed the allocated program:\nwant:\n%s\nhave:\n%s", want.String(), have.String())
	}
}

func TestBinaryDecodeRejectsGarbage(t *testing.T) {
	key, entry := testEntry(t, 23)
	data, err := Encode(key, entry)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		[]byte(magic),
		[]byte(magic + "\x05abc"), // key overruns buffer
		data[:len(data)/2],        // truncated mid-frame or mid-report
		append(append([]byte{}, data...), "garbage"...), // trailing junk breaks the report JSON
	} {
		if _, _, err := Decode(bad); err == nil {
			t.Errorf("Decode(%q...) succeeded", bad[:min(len(bad), 12)])
		}
	}
}
