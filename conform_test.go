package regalloc

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/progs"
)

// TestEngineConform spot-checks the engine-level differential harness
// across the built-in algorithms on a spill-forcing machine.
func TestEngineConform(t *testing.T) {
	mach := Tiny(6, 4)
	cfg, err := progs.ProfileGen("high-pressure", 4)
	if err != nil {
		t.Fatal(err)
	}
	prog := progs.Random(mach, cfg)
	for _, algo := range []string{"binpack", "twopass", "coloring", "linearscan"} {
		eng, err := New(mach, WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Conform(context.Background(), prog, []byte("conform spot check"))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Mismatch != nil {
			t.Fatalf("%s: unexpected mismatch %+v", algo, res.Mismatch)
		}
		if res.Ref == nil || res.Run == nil || res.Report == nil {
			t.Fatalf("%s: incomplete result %+v", algo, res)
		}
		if res.Run.Counters.Total == 0 {
			t.Fatalf("%s: allocated program executed nothing", algo)
		}
	}
}

// skewedAllocator is a deliberately wrong allocator: it bumps the first
// integer constant of the procedure before handing off to binpack, so
// its output is a perfectly well-formed allocation of a *different*
// program. Structural validation and the symbolic verifier both pass;
// only differential execution can tell. An immediate operand is not a
// temp, so the liveness the engine hands over still holds.
type skewedAllocator struct{ inner Allocator }

func (s skewedAllocator) Name() string { return "skewed" }

func (s skewedAllocator) Allocate(p *Proc, lv *Liveness, tm *Timer) (*Result, error) {
outer:
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == OpLdi && len(in.Uses) == 1 && in.Uses[0].Kind == ir.KindImm {
				in.Uses[0].Imm++
				break outer
			}
		}
	}
	return s.inner.Allocate(p, lv, tm)
}

var registerSkewedOnce sync.Once

// TestEngineConformDetectsDivergence registers the skewed allocator and
// checks Conform reports the divergence with a recoverable *Mismatch.
func TestEngineConformDetectsDivergence(t *testing.T) {
	var regErr error
	registerSkewedOnce.Do(func() {
		regErr = Register("skewed", func(m *Machine) Allocator {
			return skewedAllocator{inner: core.NewDefault(m)}
		})
	})
	if regErr != nil {
		t.Fatal(regErr)
	}
	mach := Tiny(6, 4)
	b := NewBuilder(mach, 8)
	pb := b.NewProc("main")
	x := pb.IntTemp("x")
	pb.Ldi(x, 41)
	pb.Call("puti", NoTemp, TempOp(x))
	pb.Ret(x)

	eng, err := New(mach, WithAlgorithm("skewed"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Conform(context.Background(), b.Prog, nil)
	if err == nil {
		t.Fatal("skewed allocation passed conformance")
	}
	var mm *Mismatch
	if !errors.As(err, &mm) {
		t.Fatalf("error %v does not unwrap to *Mismatch", err)
	}
	if mm.Kind != MismatchOutput {
		t.Fatalf("mismatch kind = %s, want %s", mm.Kind, MismatchOutput)
	}
	if res == nil || res.Mismatch != mm {
		t.Fatalf("result does not carry the mismatch: %+v", res)
	}
	if string(res.Ref.Output) != "41\n" || string(res.Run.Output) != "42\n" {
		t.Fatalf("outputs %q vs %q", res.Ref.Output, res.Run.Output)
	}

	// Error plumbing for pipeline failures: a cancelled context fails
	// before execution with a nil result.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Conform(ctx, b.Prog, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled conform: %v", err)
	}
}
