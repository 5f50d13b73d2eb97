// Phase instrumentation: every stage of the allocation pipeline is timed
// with nanosecond resolution. The engine aggregates these timings into
// the PhaseStats section of its Report, lsra-bench surfaces them in its
// JSON output, and bench_test.go exports them as custom go-test
// benchmark metrics, which is what lets the CI bench job catch a
// regression in one phase even when the total hides it. Allocation
// counts are not sampled here: go test -benchmem and benchguard count
// them exactly.
package alloc

import "time"

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

// PhaseTimes holds each phase's accumulated wall time in nanoseconds,
// indexed by Phase.
type PhaseTimes [NumPhases]int64

// Add accumulates another run's phase times into pt.
func (pt *PhaseTimes) Add(o PhaseTimes) {
	for i := range pt {
		pt[i] += o[i]
	}
}

// TotalNs returns the summed wall time of every phase.
func (pt *PhaseTimes) TotalNs() int64 {
	var n int64
	for i := range pt {
		n += pt[i]
	}
	return n
}

// PhaseStat is one pipeline phase's aggregate cost across a batch:
// summed wall time and its share of the total phase time.
type PhaseStat struct {
	Phase string  `json:"phase"`
	Ns    int64   `json:"ns"`
	Share float64 `json:"share"`
}

// Stats renders aggregated phase times as PhaseStats, in phase
// declaration order.
func (pt *PhaseTimes) Stats() []PhaseStat {
	total := pt.TotalNs()
	stats := make([]PhaseStat, 0, NumPhases)
	for i, ns := range pt {
		s := PhaseStat{Phase: Phase(i).String(), Ns: ns}
		if total > 0 {
			s.Share = float64(ns) / float64(total)
		}
		stats = append(stats, s)
	}
	return stats
}

// Timer attributes wall time to phases: Start it when a pipeline starts
// and call Mark at each phase boundary; the interval since the previous
// mark is charged to the named phase. A mark costs one time.Now. A Timer
// belongs to one goroutine.
type Timer struct {
	last time.Time
}

// Start (re)starts t as a fresh phase timer, in place: the pipeline
// keeps its timer in the worker's Scratch, so starting one per procedure
// allocates nothing.
func (t *Timer) Start() {
	t.last = time.Now()
}

// Mark charges the interval since the previous mark (or Start) to phase
// ph in st. Marking a nil Timer does nothing.
func (t *Timer) Mark(st *Stats, ph Phase) {
	if t == nil {
		return
	}
	now := time.Now()
	st.Phases[ph] += now.Sub(t.last).Nanoseconds()
	t.last = now
}
