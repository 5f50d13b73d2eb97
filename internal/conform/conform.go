// Package conform is the differential conformance harness: it treats
// register allocation as a semantics-preserving model transformation and
// checks the claim empirically. Every program is executed on the VM
// twice — before allocation (temporary semantics, the "infinite register
// machine" of §2.2) and after allocation under an allocator, with
// caller-saved registers poisoned at every call — and the two executions
// must agree on all observable behavior: intrinsic output, return value,
// the final global-memory image, and sane dynamic counters.
//
// The grid driver in grid.go sweeps allocator × machine × workload
// profile × seed and reports each divergence as a minimized,
// reproducible cell.
package conform

import (
	"bytes"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/ir"
	"repro/internal/target"
	"repro/internal/vm"

	// Registry side effects: the grid's default allocator axis is every
	// registered allocator ("oracle" registers through quality.go's
	// import).
	_ "repro/internal/coloring"
	_ "repro/internal/core"
	_ "repro/internal/linearscan"
)

// Mismatch kinds, ordered roughly by how early in the pipeline the
// failure occurred.
const (
	KindConfigError = "config-error" // the cell itself is unresolvable (bad allocator/machine/profile name)
	KindAllocError  = "alloc-error"  // the allocation pipeline itself failed
	KindExecError   = "exec-error"   // one of the two executions trapped
	KindOutput      = "output"       // intrinsic output streams differ
	KindRetValue    = "retval"       // return values differ
	KindMemory      = "memory"       // final global-memory images differ
	KindCounters    = "counters"     // dynamic counters are insane
	// KindQuality marks a quality-envelope violation: the cell executed
	// correctly but an allocator's spill traffic broke a configured
	// allocator-vs-allocator or allocator-vs-oracle bound (quality.go).
	KindQuality = "quality-envelope"
)

// Mismatch describes one observable divergence between the reference and
// allocated executions. A nil *Mismatch means the executions conform.
type Mismatch struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

func (m *Mismatch) Error() string { return fmt.Sprintf("conform: %s: %s", m.Kind, m.Detail) }

// countersBoundFactor bounds the allocated execution's total dynamic
// instruction count as a multiple of the reference count. Allocation
// overhead (spill, resolution, callee-save traffic) is real but bounded;
// a blowup past this factor means the allocator emitted runaway code
// even if it happens to compute the right answer.
const countersBoundFactor = 64

// Diff compares a reference (pre-allocation) execution against an
// allocated one and returns the first observable divergence, or nil.
//
// Besides the equality checks on output, return value and memory, it
// applies the counter sanity rules: allocation must not create original
// program work (the allocated run's untagged instruction count cannot
// exceed the reference total — DCE and peephole only remove), spill
// overhead must be attributed to spill tags (never negative by
// construction, but the tag histogram must sum to the total), and the
// total dynamic count must stay within countersBoundFactor of the
// reference.
func Diff(ref, got *vm.Result) *Mismatch {
	if !bytes.Equal(ref.Output, got.Output) {
		return &Mismatch{Kind: KindOutput, Detail: fmt.Sprintf(
			"reference wrote %q, allocated wrote %q", clip(ref.Output), clip(got.Output))}
	}
	if ref.RetValue != got.RetValue {
		return &Mismatch{Kind: KindRetValue, Detail: fmt.Sprintf(
			"reference returned %d, allocated returned %d", ref.RetValue, got.RetValue)}
	}
	if len(ref.Mem) != len(got.Mem) {
		return &Mismatch{Kind: KindMemory, Detail: fmt.Sprintf(
			"memory sizes differ: %d vs %d words", len(ref.Mem), len(got.Mem))}
	}
	for i := range ref.Mem {
		if ref.Mem[i] != got.Mem[i] {
			return &Mismatch{Kind: KindMemory, Detail: fmt.Sprintf(
				"mem[%d] = %#x in reference, %#x allocated", i, ref.Mem[i], got.Mem[i])}
		}
	}
	return diffCounters(&ref.Counters, &got.Counters)
}

func diffCounters(ref, got *vm.Counters) *Mismatch {
	if orig := got.ByTag[ir.TagNone]; orig > ref.Total {
		return &Mismatch{Kind: KindCounters, Detail: fmt.Sprintf(
			"allocated run executed %d untagged instructions, reference only %d (allocation invented program work)",
			orig, ref.Total)}
	}
	var tagSum int64
	for _, n := range got.ByTag {
		if n < 0 {
			return &Mismatch{Kind: KindCounters, Detail: fmt.Sprintf("negative tag counter: %v", got.ByTag)}
		}
		tagSum += n
	}
	if tagSum != got.Total {
		return &Mismatch{Kind: KindCounters, Detail: fmt.Sprintf(
			"tag histogram sums to %d, total is %d", tagSum, got.Total)}
	}
	if got.SpillOverhead() < 0 || got.SaveRestoreOverhead() < 0 {
		return &Mismatch{Kind: KindCounters, Detail: fmt.Sprintf(
			"negative overhead: spill %d, save/restore %d", got.SpillOverhead(), got.SaveRestoreOverhead())}
	}
	if got.Total > countersBoundFactor*ref.Total+1024 {
		return &Mismatch{Kind: KindCounters, Detail: fmt.Sprintf(
			"allocated run executed %d instructions for a reference of %d (past the %d× sanity bound)",
			got.Total, ref.Total, countersBoundFactor)}
	}
	return nil
}

func clip(b []byte) []byte {
	const max = 96
	if len(b) > max {
		return b[:max]
	}
	return b
}

// Exec runs the reference program (plain temp semantics) and the
// allocated program (paranoid mode: caller-saved registers poisoned
// after every call) on the VM and diffs the results. The reference run
// is returned even when the allocated run diverges, for reporting.
func Exec(ref, allocated *ir.Program, mach *target.Machine, input []byte, maxSteps int64) (refRes, gotRes *vm.Result, mm *Mismatch) {
	refRes, err := vm.Run(ref, vm.Config{Mach: mach, Input: input, MaxSteps: maxSteps})
	if err != nil {
		return nil, nil, &Mismatch{Kind: KindExecError, Detail: fmt.Sprintf("reference execution: %v", err)}
	}
	gotRes, err = vm.Run(allocated, vm.Config{Mach: mach, Input: input, MaxSteps: maxSteps, Paranoid: true})
	if err != nil {
		return refRes, nil, &Mismatch{Kind: KindExecError, Detail: fmt.Sprintf("allocated execution: %v", err)}
	}
	return refRes, gotRes, Diff(refRes, gotRes)
}

// Allocate runs the paper's pipeline — alloc.Pipeline with the verifier
// on, the engine's default configuration, so the harness certifies
// exactly the path the engine serves — over every procedure of prog with
// a fresh instance of the named allocator. The input program is not
// modified.
func Allocate(prog *ir.Program, mach *target.Machine, allocator string) (*ir.Program, alloc.Stats, error) {
	f, ok := alloc.Lookup(allocator)
	if !ok {
		return nil, alloc.Stats{}, fmt.Errorf("conform: unknown allocator %q (have %v)", allocator, alloc.Names())
	}
	return alloc.Pipeline{Mach: mach, Verify: true}.Program(f(mach), prog)
}

// Check allocates prog under the named allocator and differentially
// executes it against the unallocated original. It returns the mismatch
// (nil when conforming) plus both execution results for reporting.
func Check(prog *ir.Program, mach *target.Machine, allocator string, input []byte, maxSteps int64) (refRes, gotRes *vm.Result, mm *Mismatch) {
	allocated, _, err := Allocate(prog, mach, allocator)
	if err != nil {
		return nil, nil, &Mismatch{Kind: KindAllocError, Detail: err.Error()}
	}
	return Exec(prog, allocated, mach, input, maxSteps)
}
