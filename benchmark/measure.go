package main

import (
	"context"
	"time"

	regalloc "repro"
)

// instance is one workload after set-up: its inputs generated, its
// engines or server running, ready to be measured.
type instance interface {
	// window runs the workload's load for d. Traced windows also record
	// spans around every call into a layer.
	window(ctx context.Context, d time.Duration, traced bool) (measurement, error)
	// check runs after the last window, outside timing: it checks the
	// outputs the windows produced against an independent reference and
	// measures their quality. Spans of calls the check makes into a layer
	// go to tr when it is non-nil.
	check(tr *tracer) (quality, error)
	// pid is the process doing the work (for peak RSS).
	pid() int
	// probeInputs are the distinct inputs the layer probes run on, and
	// probeEngine the engine configuration the workload allocates with.
	probeInputs() []input
	probeEngine() *regalloc.Engine
	close() error
}

// measurement is what one or more windows measured.
type measurement struct {
	attempted, failed int64
	// doneOps operations completed in doneNs of closed-loop wall time.
	doneOps  int64
	doneNs   int64
	lat      []float64 // per-op latency (ns), from the op's due time
	at       []int64   // when each op was due, in the order of lat
	lateness []float64 // how late the load generator issued each op (ns)
	hitLat   []float64 // serve: latency of requests answered from the cache
	use      usage     // resource deltas of the working process over the attempted ops
	engine   engineStats
	serve    serveSample
	tracers  []*tracer
}

// engineStats is the allocation pipeline's own account of the programs
// it allocated (cache hits excluded): wall time around each
// AllocateProgram call and the Report.PhaseStats sums.
type engineStats struct {
	programs int64
	wallNs   int64
	phaseNs  map[string]int64 // by regalloc.PhaseStat.Phase
}

func (e *engineStats) addReport(wallNs int64, rep *regalloc.Report) {
	e.programs++
	e.wallNs += wallNs
	if e.phaseNs == nil {
		e.phaseNs = map[string]int64{}
	}
	for _, ps := range rep.PhaseStats {
		e.phaseNs[ps.Phase] += ps.Ns
	}
}

// serveSample is the service's account of a set of /allocate requests:
// the time the client saw, the engine time the server reported for the
// same requests, and cache outcomes.
type serveSample struct {
	reqs         int64
	clientNs     float64
	engineNs     float64
	hits, misses int64
}

func (m *measurement) add(o measurement) {
	m.attempted += o.attempted
	m.failed += o.failed
	m.doneOps += o.doneOps
	m.doneNs += o.doneNs
	m.lat = append(m.lat, o.lat...)
	m.at = append(m.at, o.at...)
	m.lateness = append(m.lateness, o.lateness...)
	m.hitLat = append(m.hitLat, o.hitLat...)
	m.use = m.use.plus(o.use)
	m.engine.programs += o.engine.programs
	m.engine.wallNs += o.engine.wallNs
	for k, v := range o.engine.phaseNs {
		if m.engine.phaseNs == nil {
			m.engine.phaseNs = map[string]int64{}
		}
		m.engine.phaseNs[k] += v
	}
	m.serve.reqs += o.serve.reqs
	m.serve.clientNs += o.serve.clientNs
	m.serve.engineNs += o.serve.engineNs
	m.serve.hits += o.serve.hits
	m.serve.misses += o.serve.misses
	m.tracers = append(m.tracers, o.tracers...)
}

// quality is the check's tally over a workload's quality set: dynamic
// counts of the unallocated reference and of the allocated output from
// the same VM runs, static sizes, and the allocator's own counts.
type quality struct {
	programs             int64
	failed               int64 // outputs that failed the check
	checked              int64 // outputs checked
	refDyn, outDyn       int64
	refCycles, outCycles int64
	spill                int64 // dynamic spill and resolution instructions
	srcStatic, outStatic int64
	candidates, spilled  int64
	resolve              int64 // static resolution instructions inserted
}
