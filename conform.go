package regalloc

import (
	"context"
	"fmt"

	"repro/internal/conform"
	"repro/internal/vm"
)

// Mismatch describes one observable divergence between the unallocated
// and allocated executions of a program (see ConformResult).
type Mismatch = conform.Mismatch

// Conformance mismatch kinds.
const (
	MismatchOutput   = conform.KindOutput
	MismatchRetValue = conform.KindRetValue
	MismatchMemory   = conform.KindMemory
	MismatchCounters = conform.KindCounters
	MismatchExec     = conform.KindExecError
)

// ConformResult is the outcome of Engine.Conform: the allocated program
// with its allocation report, both execution results, and the first
// observed divergence (nil when the allocation conforms).
type ConformResult struct {
	// Allocated is the allocated program; Report its allocation report.
	Allocated *Program
	Report    *Report
	// Ref is the execution of the input program under temp semantics;
	// Run the execution of Allocated with caller-saved registers
	// poisoned at every call (ExecuteParanoid).
	Ref, Run *ExecResult
	// Mismatch is the first divergence between Ref and Run, or nil.
	Mismatch *Mismatch
}

// Conform is the engine-level differential conformance check: it
// allocates prog through the engine's configured pipeline, executes the
// input program and the allocated program on the VM (the latter in
// paranoid mode), and compares all observable behavior — intrinsic
// output, return value, final memory image, and dynamic-counter sanity.
//
// A non-nil error with a populated ConformResult means the allocation
// succeeded but diverged (errors.As recovers the *Mismatch); a nil
// ConformResult means the pipeline itself failed. Tests use it to
// spot-check single programs; the full allocator × machine × profile
// grid lives in cmd/lsra-conform and runs the same alloc.Pipeline the
// engine does.
func (e *Engine) Conform(ctx context.Context, prog *Program, input []byte) (*ConformResult, error) {
	allocated, rep, err := e.AllocateProgram(ctx, prog)
	if err != nil {
		return nil, err
	}
	res := &ConformResult{Allocated: allocated, Report: rep}
	res.Ref, err = vm.Run(prog, vm.Config{Mach: e.mach, Input: input})
	if err != nil {
		return nil, fmt.Errorf("regalloc: Conform: reference execution: %w", err)
	}
	res.Run, err = vm.Run(allocated, vm.Config{Mach: e.mach, Input: input, Paranoid: true})
	if err != nil {
		res.Mismatch = &Mismatch{Kind: MismatchExec, Detail: err.Error()}
		return res, fmt.Errorf("regalloc: Conform(%s on %s): %w", e.algorithm, e.mach.Name, res.Mismatch)
	}
	if mm := conform.Diff(res.Ref, res.Run); mm != nil {
		res.Mismatch = mm
		return res, fmt.Errorf("regalloc: Conform(%s on %s): %w", e.algorithm, e.mach.Name, mm)
	}
	return res, nil
}
