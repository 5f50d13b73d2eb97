package irbin_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	regalloc "repro"
	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/progs"
	"repro/internal/target"
)

func machlessText(prog *ir.Program) string {
	var sb strings.Builder
	(&ir.Printer{}).WriteProgram(&sb, prog)
	return sb.String()
}

// checkRoundTrip pushes prog through encode→decode and asserts the
// decoded program prints identically and re-encodes byte-for-byte.
func checkRoundTrip(t *testing.T, prog *ir.Program) {
	t.Helper()
	enc := irbin.EncodeProgram(prog)
	got, n, err := irbin.NewArena().Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
	}
	if want, have := machlessText(prog), machlessText(got); want != have {
		t.Fatalf("round trip changed program:\nwant:\n%s\nhave:\n%s", want, have)
	}
	if got.MemWords != prog.MemWords {
		t.Fatalf("MemWords %d, want %d", got.MemWords, prog.MemWords)
	}
	if len(got.MemInit) != len(prog.MemInit) {
		t.Fatalf("MemInit has %d entries, want %d", len(got.MemInit), len(prog.MemInit))
	}
	for a, v := range prog.MemInit {
		if got.MemInit[a] != v {
			t.Fatalf("MemInit[%d] = %d, want %d", a, got.MemInit[a], v)
		}
	}
	re := irbin.EncodeProgram(got)
	if !bytes.Equal(enc, re) {
		t.Fatalf("re-encode is not a fixed point: %d vs %d bytes", len(enc), len(re))
	}
	if err := ir.ValidateProgram(got, nil); err != nil {
		t.Fatalf("decoded program invalid: %v", err)
	}
}

func TestRoundTripProfiles(t *testing.T) {
	mach := target.Alpha()
	for _, name := range progs.Profiles() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				cfg, err := progs.ProfileGen(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				checkRoundTrip(t, progs.Random(mach, cfg))
			})
		}
	}
}

func TestRoundTripBenchmarks(t *testing.T) {
	mach := target.Alpha()
	for _, b := range progs.Suite() {
		t.Run(b.Name, func(t *testing.T) {
			checkRoundTrip(t, b.Build(mach, 1))
		})
	}
}

// TestRoundTripAllocatedForms covers the operand kinds only allocated
// code carries: physical registers (including the machless $R spelling)
// and spill slots with owners.
func TestRoundTripAllocatedForms(t *testing.T) {
	const text = `program mem=8 main=f
func f(a int) {
entry:
    $R1 = add $R0, 7
    spill.st [slot0:a], $R1
    $R2 = spill.ld [slot0:a]
    $R30 = fldi 2.5
    ret
}
`
	prog, err := ir.ParseProgramString(text, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog.SetMem(3, -42)
	prog.Procs[0].Blocks[0].Depth = 2 // allocated code prints loop depths
	checkRoundTrip(t, prog)
}

// TestRoundTripAllocatedPrograms runs the engine's real output through
// the codec on every machine preset under each heuristic allocator:
// the decoded program must print with the machine exactly as the
// engine's output did, which is what a cache hit serves.
func TestRoundTripAllocatedPrograms(t *testing.T) {
	loops := 0
	for _, preset := range target.PresetNames() {
		mach, err := regalloc.ParseMachine(preset)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []string{"binpack", "twopass", "coloring", "linearscan"} {
			eng, err := regalloc.New(mach, regalloc.WithAlgorithm(algo), regalloc.WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, profile := range []string{"default", "loop-nest"} {
				cfg, err := progs.ProfileGen(profile, 3)
				if err != nil {
					t.Fatal(err)
				}
				out, _, err := eng.AllocateProgram(context.Background(), progs.Random(mach, cfg))
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", preset, algo, profile, err)
				}
				got, err := irbin.DecodeProgram(irbin.EncodeProgram(out))
				if err != nil {
					t.Fatalf("%s/%s/%s: decode: %v", preset, algo, profile, err)
				}
				want, have := machText(mach, out), machText(mach, got)
				if want != have {
					t.Fatalf("%s/%s/%s: round trip changed the allocated program:\nwant:\n%s\nhave:\n%s", preset, algo, profile, want, have)
				}
				if strings.Contains(want, "; depth=") {
					loops++
				}
			}
		}
	}
	if loops == 0 {
		t.Fatal("no allocated program had a loop block; depth went untested")
	}
}

func machText(mach *target.Machine, prog *ir.Program) string {
	var sb strings.Builder
	(&ir.Printer{Mach: mach}).WriteProgram(&sb, prog)
	return sb.String()
}

func TestTextBinaryParity(t *testing.T) {
	// The same program through both front ends — ParseProgram on the
	// printed text, Decode on the binary frame — must land on the same
	// in-memory form, across every machine preset.
	for _, preset := range target.PresetNames() {
		mach, err := target.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		for _, profile := range progs.Profiles() {
			t.Run(preset+"/"+profile, func(t *testing.T) {
				cfg, err := progs.ProfileGen(profile, 11)
				if err != nil {
					t.Fatal(err)
				}
				prog := progs.Random(mach, cfg)
				text := machlessText(prog)
				fromText, err := ir.ParseProgramString(text, nil)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				fromBin, err := irbin.DecodeProgram(irbin.EncodeProgram(prog))
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if a, b := machlessText(fromText), machlessText(fromBin); a != b {
					t.Fatalf("text and binary front ends disagree:\ntext:\n%s\nbinary:\n%s", a, b)
				}
				// Byte equality of the two encodings is NOT asserted:
				// the text form carries neither block IDs nor MemInit,
				// so a text round trip legitimately renumbers blocks.
				// The printed form above is the semantic parity claim.
			})
		}
	}
}

// TestArenaReuse decodes alternating large and small programs through
// one arena, checking a small decode is never corrupted by the large
// one's leftovers.
func TestArenaReuse(t *testing.T) {
	mach := target.Alpha()
	big := progs.BuildFpppp(mach, 2)
	cfg := progs.DefaultGen(7)
	small := progs.Random(mach, cfg)
	encBig, encSmall := irbin.EncodeProgram(big), irbin.EncodeProgram(small)
	wantBig, wantSmall := machlessText(big), machlessText(small)
	a := irbin.NewArena()
	for i := 0; i < 4; i++ {
		enc, want := encBig, wantBig
		if i%2 == 1 {
			enc, want = encSmall, wantSmall
		}
		got, _, err := a.Decode(enc)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if have := machlessText(got); have != want {
			t.Fatalf("iter %d: arena reuse corrupted program:\n%s", i, have)
		}
	}
}

func TestFrameStream(t *testing.T) {
	mach := target.Alpha()
	var buf []byte
	var want []string
	for seed := int64(0); seed < 5; seed++ {
		p := progs.Random(mach, progs.DefaultGen(seed))
		buf = irbin.AppendProgram(buf, p)
		want = append(want, machlessText(p))
	}
	a := irbin.NewArena()
	rest := buf
	for i := 0; len(rest) > 0; i++ {
		if n, err := irbin.FrameSize(rest); err != nil || n <= 0 {
			t.Fatalf("frame %d: size %d err %v", i, n, err)
		}
		prog, n, err := a.Decode(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if have := machlessText(prog); have != want[i] {
			t.Fatalf("frame %d decoded wrong program", i)
		}
		rest = rest[n:]
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	prog := progs.Random(target.Alpha(), progs.DefaultGen(3))
	enc := irbin.EncodeProgram(prog)

	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"truncated header", func(b []byte) []byte { return b[:3] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }},
		{"payload length overrun", func(b []byte) []byte { b[5] = 0xff; b[6] = 0xff; return b[:8] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mangled := tc.mangle(bytes.Clone(enc))
			if _, _, err := irbin.NewArena().Decode(mangled); err == nil {
				t.Fatal("decode accepted corrupt input")
			}
		})
	}

	// Every single-byte corruption must either fail decode or still
	// yield a structurally sound program — never panic or overrun.
	for i := range enc {
		for _, delta := range []byte{1, 0x80} {
			mangled := bytes.Clone(enc)
			mangled[i] += delta
			prog, _, err := irbin.NewArena().Decode(mangled)
			if err == nil && prog == nil {
				t.Fatalf("byte %d: nil program without error", i)
			}
		}
	}
}

func TestDecodeRejectsDuplicateProc(t *testing.T) {
	// AddProc panics on duplicate names, so a hostile frame can't be
	// built through the constructor API: encode two procs named f and
	// g, then patch g's name back to f in the wire bytes.
	p, err := ir.ParseProgramString(
		"program mem=0 main=f\nfunc f() {\nentry:\n    ret\n}\nfunc g() {\nentry:\n    ret\n}\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	hostile := irbin.EncodeProgram(p)
	idx := bytes.LastIndex(hostile, []byte{1, 'g'})
	if idx < 0 {
		t.Fatal("could not locate proc name in frame")
	}
	hostile[idx+1] = 'f'
	if _, _, err := irbin.NewArena().Decode(hostile); err == nil {
		t.Fatal("decode accepted duplicate proc name")
	}
}

// TestDecodeRejectsInvalidUTF8 patches a temp name to bytes that are
// not UTF-8. Such a name cannot travel in a JSON request or response,
// so decode must refuse it rather than let the binary body accept a
// program the text body cannot express.
func TestDecodeRejectsInvalidUTF8(t *testing.T) {
	p, err := ir.ParseProgramString(
		"program mem=0 main=main\nfunc main() {\nentry:\n    xq = ldi 1\n    ret\n}\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	frame := irbin.EncodeProgram(p)
	if _, _, err := irbin.NewArena().Decode(frame); err != nil {
		t.Fatalf("unpatched frame: %v", err)
	}
	idx := bytes.Index(frame, []byte{2, 'x', 'q'})
	if idx < 0 {
		t.Fatal("could not locate temp name in frame")
	}
	frame[idx+2] = 0xff
	if _, _, err := irbin.NewArena().Decode(frame); err == nil {
		t.Fatal("decode accepted a name that is not UTF-8")
	}
}

func BenchmarkDecode(b *testing.B) {
	prog := progs.Random(target.Alpha(), progs.DefaultGen(42))
	enc := irbin.EncodeProgram(prog)
	a := irbin.NewArena()
	if _, _, err := a.Decode(enc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	prog := progs.Random(target.Alpha(), progs.DefaultGen(42))
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = irbin.AppendProgram(buf[:0], prog)
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkParseText(b *testing.B) {
	prog := progs.Random(target.Alpha(), progs.DefaultGen(42))
	text := machlessText(prog)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ir.ParseProgramString(text, nil); err != nil {
			b.Fatal(err)
		}
	}
}
