package irbin_test

import (
	"bytes"
	"testing"

	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/progs"
	"repro/internal/target"
)

// FuzzBinaryRoundTrip feeds arbitrary bytes to the decoder. Any input
// the decoder accepts must reach an encode fixed point (the canonical
// wire form re-encodes byte-for-byte), and any accepted input whose
// program also passes semantic validation must survive the text front
// end: print → parse → print lands on the same text as the decoded
// program prints. The seed corpus covers every generator profile across
// the machine presets, so the interesting region of the format is
// explored from the start.
func FuzzBinaryRoundTrip(f *testing.F) {
	for _, preset := range target.PresetNames() {
		mach, err := target.Preset(preset)
		if err != nil {
			f.Fatal(err)
		}
		for _, profile := range progs.Profiles() {
			cfg, err := progs.ProfileGen(profile, 5)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(irbin.EncodeProgram(progs.Random(mach, cfg)))
		}
	}
	f.Add(irbin.EncodeProgram(progs.BuildWC(target.Alpha(), 1)))
	f.Add([]byte(irbin.Magic))
	f.Add([]byte{})

	arena := irbin.NewArena()
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, n, err := arena.Decode(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("accepted frame with bogus size %d (input %d bytes)", n, len(data))
		}
		enc := irbin.EncodeProgram(prog)
		// Canonical fixed point: decode(enc) must re-encode to enc.
		prog2, _, err := irbin.NewArena().Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical form failed: %v", err)
		}
		if re := irbin.EncodeProgram(prog2); !bytes.Equal(enc, re) {
			t.Fatalf("encode is not a fixed point: %d vs %d bytes", len(enc), len(re))
		}
		// Text parity, for programs the text grammar can express (the
		// semantically valid ones; decode alone guarantees structure,
		// not e.g. terminator shape).
		if ir.ValidateProgram(prog2, nil) != nil {
			return
		}
		// The text form carries no loop depth (the printer's "; depth=N"
		// is a comment), so compare programs without it.
		for _, p := range prog2.Procs {
			for _, b := range p.Blocks {
				b.Depth = 0
			}
		}
		text := machlessText(prog2)
		fromText, err := ir.ParseProgramString(text, nil)
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\n%s", err, text)
		}
		if got := machlessText(fromText); got != text {
			t.Fatalf("text round trip diverged:\nbinary-side:\n%s\ntext-side:\n%s", text, got)
		}
	})
}
