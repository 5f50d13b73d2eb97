// Phase instrumentation: every stage of the allocation pipeline is timed
// with nanosecond resolution, and — when profiling is enabled — annotated
// with heap-allocation deltas sampled from runtime/metrics. The engine
// aggregates these samples into the PhaseStats section of its Report,
// lsra-bench surfaces them in its JSON output, and bench_test.go exports
// them as custom go-test benchmark metrics, which is what lets the CI
// bench job catch a regression in one phase even when the total hides it.
package alloc

import (
	"runtime/metrics"
	"time"
)

// Phase names one stage of the allocation pipeline.
type Phase uint8

const (
	// PhaseCFG is control-flow analysis: loop nesting depths.
	PhaseCFG Phase = iota
	// PhaseDataflow is global liveness analysis.
	PhaseDataflow
	// PhaseLifetime is interval construction: temporary lifetimes,
	// holes, reference tables and register busy segments.
	PhaseLifetime
	// PhaseScan is the allocator core: the binpacking scan, the
	// two-pass packing, coloring rounds, or the linear sweep.
	PhaseScan
	// PhaseMoves is post-scan data movement: edge resolution and the
	// consistency dataflow (§2.4), or a baseline's rewrite pass.
	PhaseMoves
	// PhaseOpt is the bracketing optimizations the engine runs: DCE
	// before allocation, peephole and store forwarding after.
	PhaseOpt
	// PhaseVerify is the symbolic allocation verifier.
	PhaseVerify
	// PhaseOther is everything else the pipeline spends time on:
	// cloning, renumbering, validation, statistics.
	PhaseOther

	// NumPhases is the number of Phase values, for counter arrays.
	NumPhases = int(PhaseOther) + 1
)

var phaseNames = [NumPhases]string{
	"cfg", "dataflow", "lifetime", "scan", "moves", "opt", "verify", "other",
}

// String returns the phase's report name.
func (ph Phase) String() string {
	if int(ph) >= NumPhases {
		return "unknown"
	}
	return phaseNames[ph]
}

// PhaseNames lists every phase in declaration order, matching the
// indices of PhaseTimes.
func PhaseNames() []string { return phaseNames[:] }

// PhaseSample accumulates one phase's cost: wall time and, when alloc
// profiling is on, heap allocation deltas attributed to the phase.
type PhaseSample struct {
	Ns     int64  `json:"ns"`
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
}

// PhaseTimes indexes PhaseSamples by Phase.
type PhaseTimes [NumPhases]PhaseSample

// Add accumulates another run's phase samples into pt.
func (pt *PhaseTimes) Add(o PhaseTimes) {
	for i := range pt {
		pt[i].Ns += o[i].Ns
		pt[i].Allocs += o[i].Allocs
		pt[i].Bytes += o[i].Bytes
	}
}

// TotalNs returns the summed wall time of every phase.
func (pt *PhaseTimes) TotalNs() int64 {
	var n int64
	for i := range pt {
		n += pt[i].Ns
	}
	return n
}

// Timer attributes wall time (and optionally heap allocation) to phases:
// construct it when a pipeline starts and call Mark at each phase
// boundary; the interval since the previous mark is charged to the named
// phase. Alloc sampling reads two runtime/metrics counters per mark —
// cheap, but not free, so it is opt-in (Options.ProfileAllocs /
// regalloc.WithPhaseProfile); plain timing costs one time.Now per mark
// and is always on. A Timer belongs to one goroutine. Note that heap
// counters are process-global: samples taken while other goroutines
// allocate attribute their traffic too, so alloc profiles are only exact
// under -parallelism 1.
type Timer struct {
	sampleAllocs bool
	last         time.Time
	lastAllocs   uint64
	lastBytes    uint64
	samples      [2]metrics.Sample
}

// NewTimer starts a phase timer. sampleAllocs enables per-phase heap
// allocation deltas.
func NewTimer(sampleAllocs bool) Timer {
	t := Timer{sampleAllocs: sampleAllocs}
	if sampleAllocs {
		t.samples[0].Name = "/gc/heap/allocs:objects"
		t.samples[1].Name = "/gc/heap/allocs:bytes"
		t.lastAllocs, t.lastBytes = t.readHeap()
	}
	t.last = time.Now()
	return t
}

// Mark charges the interval since the previous mark (or construction) to
// phase ph in st. Marking a nil Timer does nothing.
func (t *Timer) Mark(st *Stats, ph Phase) {
	if t == nil {
		return
	}
	now := time.Now()
	st.Phases[ph].Ns += now.Sub(t.last).Nanoseconds()
	t.last = now
	if t.sampleAllocs {
		allocs, bytes := t.readHeap()
		st.Phases[ph].Allocs += allocs - t.lastAllocs
		st.Phases[ph].Bytes += bytes - t.lastBytes
		t.lastAllocs, t.lastBytes = allocs, bytes
		t.last = time.Now() // exclude the sampling cost itself
	}
}

// Skip advances the timer without charging the elapsed interval to any
// phase. Callers use it around spans another component accounts for
// itself (the engine skips the allocator core, which runs its own
// timer).
func (t *Timer) Skip() {
	if t.sampleAllocs {
		t.lastAllocs, t.lastBytes = t.readHeap()
	}
	t.last = time.Now()
}

func (t *Timer) readHeap() (allocs, bytes uint64) {
	metrics.Read(t.samples[:])
	return t.samples[0].Value.Uint64(), t.samples[1].Value.Uint64()
}

// HeapCounters returns the process's cumulative heap allocation counters
// (objects, bytes). The engine samples them around a batch so Reports
// carry an approximate allocs-per-batch figure without per-phase
// profiling enabled.
func HeapCounters() (allocs, bytes uint64) {
	var s [2]metrics.Sample
	s[0].Name = "/gc/heap/allocs:objects"
	s[1].Name = "/gc/heap/allocs:bytes"
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
