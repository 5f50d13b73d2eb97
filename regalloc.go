// Package regalloc is the public API of this repository: a reproduction
// of "Quality and Speed in Linear-scan Register Allocation" (Traub,
// Holloway, Smith; PLDI 1998).
//
// It exposes the IR and its builder, the machine descriptions, four
// register allocators — the paper's second-chance binpacking, the
// traditional two-pass binpacking it ablates against, George–Appel
// iterated-register-coalescing graph coloring, and Poletto-style linear
// scan — the bracketing optimization passes, a VM that executes both
// unallocated and allocated code while counting dynamic instructions, and
// an allocation verifier.
//
// The pipeline mirrors §3 of the paper: dead-code elimination, register
// allocation, then a peephole pass that deletes collapsed moves. The
// entry point is the Engine, constructed once per machine and reused
// for any number of allocations:
//
//	mach := regalloc.Alpha()
//	eng, err := regalloc.New(mach,
//		regalloc.WithAlgorithm("binpack"),
//		regalloc.WithParallelism(8))
//	b := regalloc.NewBuilder(mach, 64)
//	... build IR ...
//	allocated, report, err := eng.AllocateProgram(ctx, b.Prog)
//	out, err := regalloc.Execute(allocated, mach, input)
//
// Allocators are pluggable: Register adds a named factory and
// WithAlgorithm selects it; Algorithms lists what is available. Every
// allocator, built in or registered, meets one contract,
// Allocator.Allocate(p, lv, tm): the engine clones each procedure once,
// into a worker's pooled arena, and runs dead-code elimination on the
// clone, and the allocator rewrites that clone in place, using the
// liveness lv that elimination left behind and marking its phases on
// the pipeline's Timer tm. The engine then copies the result out once,
// so no output shares storage with a worker.
package regalloc

import (
	"strings"

	"repro/internal/alloc"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/target"
	"repro/internal/verify"
	"repro/internal/vm"

	// Imported for their registry side effects: the built-in allocators
	// self-register under "binpack" and "twopass" (core), "coloring",
	// "linearscan" and "oracle".
	_ "repro/internal/coloring"
	_ "repro/internal/core"
	_ "repro/internal/linearscan"
	_ "repro/internal/oracle"
)

// Re-exported IR and machine types. These aliases are the supported way
// to name the internal types from outside the module.
type (
	// Program is a set of procedures plus global memory.
	Program = ir.Program
	// Proc is one procedure.
	Proc = ir.Proc
	// Block is a basic block.
	Block = ir.Block
	// Instr is one instruction.
	Instr = ir.Instr
	// Temp names a register candidate.
	Temp = ir.Temp
	// Operand is one instruction operand.
	Operand = ir.Operand
	// Builder builds programs.
	Builder = ir.Builder
	// ProcBuilder builds one procedure.
	ProcBuilder = ir.ProcBuilder
	// Printer renders IR textually.
	Printer = ir.Printer

	// Machine describes a register target.
	Machine = target.Machine
	// Reg is a physical register.
	Reg = target.Reg
	// Class is a register file.
	Class = target.Class

	// Result is a finished allocation with statistics.
	Result = alloc.Result
	// Stats describes what an allocation did.
	Stats = alloc.Stats
	// PhaseTimes breaks a pipeline run's cost down by phase; Stats
	// carries one and Report.PhaseStats aggregates them per batch.
	PhaseTimes = alloc.PhaseTimes
	// PhaseSample is one phase's accumulated wall time and (under
	// WithPhaseProfile) heap-allocation counters.
	PhaseSample = alloc.PhaseSample
	// PhaseStat is one phase's row of Report.PhaseStats.
	PhaseStat = alloc.PhaseStat
	// Allocator is the one allocator contract: Allocate rewrites a
	// procedure the engine owns in place, given its liveness and the
	// pipeline's phase timer.
	Allocator = alloc.Allocator
	// Liveness is a procedure's global liveness, as the engine hands it
	// to an Allocator.
	Liveness = dataflow.Liveness
	// Timer is the pipeline's phase timer, as the engine hands it to an
	// Allocator. A wrapping allocator passes it on; the span an
	// allocator leaves unmarked counts as the scan phase, and a nil
	// Timer marks nothing.
	Timer = alloc.Timer

	// ExecResult is a VM execution outcome.
	ExecResult = vm.Result
	// ExecConfig configures VM execution.
	ExecConfig = vm.Config
	// Counters are the VM's dynamic instruction counters.
	Counters = vm.Counters
)

// Re-exported constants and constructors.
const (
	ClassInt   = target.ClassInt
	ClassFloat = target.ClassFloat
	NoTemp     = ir.NoTemp
)

// Operand constructors.
var (
	TempOp = ir.TempOp
	RegOp  = ir.RegOp
	ImmOp  = ir.ImmOp
	FImmOp = ir.FImmOp
)

// Alpha returns the Alpha-like machine used by the paper's experiments.
func Alpha() *Machine { return target.Alpha() }

// Tiny returns a small machine (useful to force spilling).
func Tiny(nInt, nFloat int) *Machine { return target.Tiny(nInt, nFloat) }

// ParseMachine parses the machine spec the command-line tools share: a
// named preset ("alpha", "x86-8", "risc-16", "wide-64", "int-heavy",
// "scratch-8", "narrow-1", "tiny") or a parameterized
// "tiny:<ints>,<floats>".
func ParseMachine(s string) (*Machine, error) {
	return target.Parse(s)
}

// MachineNames lists the named machine presets ParseMachine accepts.
func MachineNames() []string { return target.PresetNames() }

// NewBuilder returns a program builder for a machine.
func NewBuilder(m *Machine, memWords int) *Builder { return ir.NewBuilder(m, memWords) }

// Execute runs a program (allocated or not) on the VM.
func Execute(prog *Program, m *Machine, input []byte) (*ExecResult, error) {
	return vm.Run(prog, vm.Config{Mach: m, Input: input})
}

// ExecuteParanoid runs an allocated program with caller-saved registers
// poisoned at every call, which flushes out convention violations.
func ExecuteParanoid(prog *Program, m *Machine, input []byte) (*ExecResult, error) {
	return vm.Run(prog, vm.Config{Mach: m, Input: input, Paranoid: true})
}

// Verify checks an allocated procedure against its Orig annotations.
func Verify(p *Proc, m *Machine) error { return verify.Verify(p, m) }

// ValidateProgram checks the structural invariants of a source program.
func ValidateProgram(prog *Program, m *Machine) error { return ir.ValidateProgram(prog, m) }

// DumpProc renders a procedure with machine register names and spill
// tags, for debugging and examples.
func DumpProc(p *Proc, m *Machine) string {
	return dumpWith(p, m)
}

func dumpWith(p *Proc, m *Machine) string {
	pr := &ir.Printer{Mach: m, Tags: true}
	var sb strings.Builder
	pr.WriteProc(&sb, p)
	return sb.String()
}

// Re-exported opcodes for building IR through the facade.
const (
	OpNop    = ir.Nop
	OpMov    = ir.Mov
	OpLdi    = ir.Ldi
	OpAdd    = ir.Add
	OpSub    = ir.Sub
	OpMul    = ir.Mul
	OpDiv    = ir.Div
	OpRem    = ir.Rem
	OpAnd    = ir.And
	OpOr     = ir.Or
	OpXor    = ir.Xor
	OpShl    = ir.Shl
	OpShr    = ir.Shr
	OpNeg    = ir.Neg
	OpNot    = ir.Not
	OpCmpEQ  = ir.CmpEQ
	OpCmpNE  = ir.CmpNE
	OpCmpLT  = ir.CmpLT
	OpCmpLE  = ir.CmpLE
	OpCmpGT  = ir.CmpGT
	OpCmpGE  = ir.CmpGE
	OpFMov   = ir.FMov
	OpFLdi   = ir.FLdi
	OpFAdd   = ir.FAdd
	OpFSub   = ir.FSub
	OpFMul   = ir.FMul
	OpFDiv   = ir.FDiv
	OpFNeg   = ir.FNeg
	OpFCmpEQ = ir.FCmpEQ
	OpFCmpLT = ir.FCmpLT
	OpFCmpLE = ir.FCmpLE
	OpCvtIF  = ir.CvtIF
	OpCvtFI  = ir.CvtFI
	OpLd     = ir.Ld
	OpSt     = ir.St
	OpFLd    = ir.FLd
	OpFSt    = ir.FSt
)

// IROp is an instruction opcode (re-export for facade users).
type IROp = ir.Op
