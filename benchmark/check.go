package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"slices"
	"strings"

	regalloc "repro"
	"repro/internal/ir"
	"repro/internal/vm"
)

// execBoth is the output check's independent reference: it runs the
// unallocated input under temporary semantics and the allocated output
// with caller-saved registers poisoned at every call, and requires the
// same output, return value and final memory.
func execBoth(in input, out *ir.Program, mach *regalloc.Machine) (ref, got *vm.Result, err error) {
	ref, err = vm.Run(in.prog, vm.Config{Mach: mach, Input: in.stdin})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: reference run: %w", in.name, err)
	}
	got, err = vm.Run(out, vm.Config{Mach: mach, Input: in.stdin, Paranoid: true})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: allocated run: %w", in.name, err)
	}
	switch {
	case !bytes.Equal(ref.Output, got.Output):
		err = fmt.Errorf("output %q, want %q", clip(got.Output), clip(ref.Output))
	case ref.RetValue != got.RetValue:
		err = fmt.Errorf("returned %d, want %d", got.RetValue, ref.RetValue)
	case !slices.Equal(ref.Mem, got.Mem):
		err = fmt.Errorf("final memory differs")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", in.name, err)
	}
	return ref, got, nil
}

func clip(b []byte) []byte { return b[:min(len(b), 64)] }

// verifyTwin checks an output of an engine built without the verifier:
// the structural validator runs on it, and a twin engine that differs
// only by running the verifier allocates the same input and must print
// the same program. (verify.Verify judges the allocator's output before
// the peephole pass, inside the pipeline; run on peephole output it
// rejects correct code.) It returns the twin's verify time.
func verifyTwin(twin *regalloc.Engine, in input, out *ir.Program) (verifyNs int64, err error) {
	mach := twin.Machine()
	for _, p := range out.Procs {
		if err := ir.ValidateAllocated(p, mach); err != nil {
			return 0, fmt.Errorf("%s: %w", in.name, err)
		}
	}
	verified, rep, err := twin.AllocateProgram(context.Background(), in.prog)
	if err != nil {
		return 0, fmt.Errorf("%s: verifier: %w", in.name, err)
	}
	if printed(verified, mach) != printed(out, mach) {
		return 0, fmt.Errorf("%s: output differs from the verified allocation", in.name)
	}
	for _, ps := range rep.PhaseStats {
		if ps.Phase == "verify" {
			verifyNs = ps.Ns
		}
	}
	return verifyNs, nil
}

func printed(prog *ir.Program, mach *regalloc.Machine) string {
	var sb strings.Builder
	(&ir.Printer{Mach: mach}).WriteProgram(&sb, prog)
	return sb.String()
}

// add folds one checked program into the quality tally.
func (q *quality) add(in input, out *ir.Program, ref, got *vm.Result, rep *regalloc.Report) {
	q.programs++
	q.refDyn += ref.Counters.Total
	q.outDyn += got.Counters.Total
	q.refCycles += ref.Counters.Cycles
	q.outCycles += got.Counters.Cycles
	q.spill += got.Counters.SpillOverhead()
	q.srcStatic += staticInstrs(in.prog)
	q.outStatic += staticInstrs(out)
	q.candidates += int64(rep.Totals.Candidates)
	q.spilled += int64(rep.Totals.SpilledTemps)
	q.resolve += int64(rep.Totals.Inserted[ir.TagResolveLoad] + rep.Totals.Inserted[ir.TagResolveStore] +
		rep.Totals.Inserted[ir.TagResolveMove])
}

// fail counts one failed output and reports the first few.
func (q *quality) fail(err error) {
	q.failed++
	if q.failed <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: wrong output: %v\n", err)
	}
}
