package conform

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/alloc"
	"repro/internal/ir"
	"repro/internal/oracle"
	"repro/internal/progs"
	"repro/internal/target"
	"repro/internal/vm"
)

// quality.go measures the quality frontier: how much dynamic spill
// traffic each allocator pays over the oracle's proven optimum, point
// by point over machine × workload × seed, with pair envelopes —
// configurable allocator-vs-allocator and allocator-vs-oracle bounds —
// enforced exactly like semantic divergences, including shrink-
// minimized reproduction recipes.

// Envelope metric names.
const (
	// MetricSpillOps is vm.Counters.SpillOverhead(): every dynamically
	// executed allocator-inserted load, store and move.
	MetricSpillOps = "spill-ops"
	// MetricSpillLoads counts every allocator-inserted load (scan +
	// resolution).
	MetricSpillLoads = "spill-loads"
	// MetricEvictLoads counts only the scan's eviction reloads
	// (TagScanLoad) — the §2 second-chance claim is specifically that
	// splitting lifetimes means reloading at most once per segment, so
	// the comparison against linear scan must not charge binpacking for
	// its resolution phase (a separate cost the paper reports
	// separately).
	MetricEvictLoads = "evict-loads"
	// MetricMemOps is the dynamic memory traffic: loads + stores from
	// both the scan and resolution, excluding register-to-register
	// shuffle moves. This is the unit the oracle optimum is stated in —
	// a whole-lifetime assignment needs no resolution, so its spill
	// cost is pure memory traffic — making mem-ops the commensurable
	// metric for allocator-vs-oracle envelopes.
	MetricMemOps = "mem-ops"
)

// Envelope is one enforced quality bound: on every measured point,
//
//	metric(Subject) ≤ Factor × metric(Baseline) + Slack
//
// An empty Baseline compares against the oracle's proven optimum (best
// paired with mem-ops, the unit the optimum is stated in) and applies
// only to oracle-eligible points.
type Envelope struct {
	Name     string  `json:"name"`
	Subject  string  `json:"subject"`
	Baseline string  `json:"baseline,omitempty"`
	Metric   string  `json:"metric"`
	Factor   float64 `json:"factor"`
	Slack    int64   `json:"slack"`
}

func (e Envelope) String() string {
	base := e.Baseline
	if base == "" {
		base = "oracle-optimum"
	}
	return fmt.Sprintf("%s: %s(%s) ≤ %g×%s(%s)+%d", e.Name, e.Metric, e.Subject, e.Factor, e.Metric, base, e.Slack)
}

// DefaultEnvelopes are the enforced frontier bounds: the paper's
// second-chance allocator must never reload more than plain linear
// scan, and the whole-lifetime allocators must stay within a measured
// factor of the optimum. Factors and slacks were calibrated against
// the full default grid (see README "Quality frontier"); tightening
// them is how a quality regression becomes a test failure.
func DefaultEnvelopes() []Envelope {
	return []Envelope{
		// §2's headline: second-chance binpacking reloads less than the
		// plain scan, because splitting lifetimes means each spilled
		// value reloads at most once per segment instead of once per
		// use. Measured on eviction reloads only — the resolution phase
		// is a separate cost the paper reports separately. The strict
		// pointwise "never worse" is not a theorem: around calls the
		// second chance can evict and reload values linear scan kept in
		// callee-saved registers (on wide-64 linear scan evicts nothing
		// at all while binpack still pays its call-crossing policy), so
		// the enforced bound carries a small factor and slack; in
		// aggregate over the default grid binpack reloads ~0.56× of
		// linear scan.
		{Name: "second-chance-reloads-vs-linearscan", Subject: "binpack", Baseline: "linearscan",
			Metric: MetricEvictLoads, Factor: 1.3, Slack: 384},
		// Each allocator's dynamic memory traffic vs the model optimum.
		// The slack absorbs zero-optimum points (register-rich machines
		// where a spill-free assignment exists but call-crossing
		// policies still touch memory); the factor bounds the
		// high-pressure cells where the optimum is large.
		{Name: "binpack-vs-oracle", Subject: "binpack", Metric: MetricMemOps, Factor: 4.0, Slack: 1024},
		{Name: "twopass-vs-oracle", Subject: "twopass", Metric: MetricMemOps, Factor: 4.0, Slack: 256},
		{Name: "coloring-vs-oracle", Subject: "coloring", Metric: MetricMemOps, Factor: 2.0, Slack: 64},
		{Name: "linearscan-vs-oracle", Subject: "linearscan", Metric: MetricMemOps, Factor: 4.0, Slack: 512},
	}
}

// QualityPoint is one measured program: machine × workload profile ×
// seed. Unlike a conformance Cell it has no allocator coordinate —
// every allocator is measured on the same program so the comparisons
// are paired.
type QualityPoint struct {
	Machine string `json:"machine"`
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
}

func (p QualityPoint) String() string {
	return fmt.Sprintf("%s/%s/seed=%d", p.Machine, p.Profile, p.Seed)
}

// AllocatorMeasure is one allocator's spill traffic on one point.
type AllocatorMeasure struct {
	SpillOps   int64 `json:"spill_ops"`
	SpillLoads int64 `json:"spill_loads"`
	EvictLoads int64 `json:"evict_loads"`
	MemOps     int64 `json:"mem_ops"`
	// Gap is (MemOps+1)/(Optimum+1) on oracle-eligible points (the +1
	// regularizer keeps zero-spill programs meaningful), 0 elsewhere.
	Gap float64 `json:"gap,omitempty"`
}

// EnvelopeViolation is one broken quality bound, reported exactly like
// a semantic divergence: the offending cell plus the smallest statement
// budget at which the same envelope still breaks.
type EnvelopeViolation struct {
	Envelope string `json:"envelope"`
	Divergence
}

// QualityCellResult is the outcome of measuring one point.
type QualityCellResult struct {
	QualityPoint
	// Eligible marks points where the oracle proved its optimum within
	// the search limits; Optimum is meaningful only then.
	Eligible bool  `json:"eligible"`
	Optimum  int64 `json:"optimum,omitempty"`
	// Measures maps allocator name → its measured traffic.
	Measures map[string]AllocatorMeasure `json:"measures,omitempty"`
	// Error reports a measurement failure (bad coordinates, allocation
	// or execution error, or a semantic mismatch caught in passing).
	Error *Divergence `json:"error,omitempty"`
	// Violations are the envelope bounds this point broke.
	Violations []EnvelopeViolation `json:"violations,omitempty"`
}

// QualityGrid spans the points to measure and the allocators to measure
// on them.
type QualityGrid struct {
	Machines   []string `json:"machines"`
	Profiles   []string `json:"profiles"`
	Seeds      []int64  `json:"seeds"`
	Allocators []string `json:"allocators"`
}

// DefaultQualityGrid measures every registered allocator on every
// machine preset and generator profile over nSeeds seeds from seed0.
func DefaultQualityGrid(seed0 int64, nSeeds int) QualityGrid {
	seeds := make([]int64, 0, nSeeds)
	for s := int64(0); s < int64(nSeeds); s++ {
		seeds = append(seeds, seed0+s)
	}
	return QualityGrid{
		Machines:   target.PresetNames(),
		Profiles:   progs.Profiles(),
		Seeds:      seeds,
		Allocators: alloc.Names(),
	}
}

// Points enumerates the grid in deterministic order.
func (g QualityGrid) Points() []QualityPoint {
	pts := make([]QualityPoint, 0, len(g.Machines)*len(g.Profiles)*len(g.Seeds))
	for _, m := range g.Machines {
		for _, p := range g.Profiles {
			for _, s := range g.Seeds {
				pts = append(pts, QualityPoint{Machine: m, Profile: p, Seed: s})
			}
		}
	}
	return pts
}

// QualityOptions tunes a quality run.
type QualityOptions struct {
	Options
	// Limits bounds the oracle search (zero value → oracle.DefaultLimits).
	Limits oracle.Limits
	// Envelopes are the enforced bounds (nil → DefaultEnvelopes).
	Envelopes []Envelope
}

func (o *QualityOptions) limits() oracle.Limits {
	if o.Limits == (oracle.Limits{}) {
		return oracle.DefaultLimits()
	}
	return o.Limits
}

func (o *QualityOptions) envelopes() []Envelope {
	if o.Envelopes == nil {
		return DefaultEnvelopes()
	}
	return o.Envelopes
}

// QualitySummary aggregates one allocator across a run.
type QualitySummary struct {
	Points         int     `json:"points"`
	EligiblePoints int     `json:"eligible_points"`
	SpillOps       int64   `json:"spill_ops"`
	OptimumSpill   int64   `json:"optimum_spill_ops"`
	GeomeanGap     float64 `json:"geomean_gap"`
	MaxGap         float64 `json:"max_gap"`
}

// QualityReport is the outcome of a quality-grid run.
type QualityReport struct {
	Grid       QualityGrid               `json:"grid"`
	Envelopes  []Envelope                `json:"envelopes"`
	Points     int                       `json:"points"`
	Eligible   int                       `json:"eligible"`
	Errors     []Divergence              `json:"errors"`
	Violations []EnvelopeViolation       `json:"violations"`
	Summary    map[string]QualitySummary `json:"summary"`
	Results    []QualityCellResult       `json:"results,omitempty"`
}

// RunQuality measures every point of the grid over a bounded worker
// pool, evaluates the envelopes, shrink-minimizes violations, and
// aggregates the frontier. Results are deterministic and in grid order.
func RunQuality(g QualityGrid, o QualityOptions, keepResults bool) *QualityReport {
	pts := g.Points()
	results := make([]QualityCellResult, len(pts))

	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pts) {
		workers = len(pts)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		stopped bool
	)
	idx := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = checkQualityPoint(pts[i], 0, g.Allocators, &o)
				if !o.NoShrink {
					for vi := range results[i].Violations {
						v := &results[i].Violations[vi]
						v.MinStmts = shrinkQuality(pts[i], v.Envelope, g.Allocators, &o)
					}
				}
				if o.FailFast && (results[i].Error != nil || len(results[i].Violations) > 0) {
					mu.Lock()
					stopped = true
					mu.Unlock()
				}
			}
		}()
	}
	for i := range pts {
		mu.Lock()
		stop := stopped
		mu.Unlock()
		if stop {
			results[i] = QualityCellResult{QualityPoint: pts[i]}
			continue
		}
		idx <- i
	}
	close(idx)
	wg.Wait()

	rep := &QualityReport{
		Grid:       g,
		Envelopes:  o.envelopes(),
		Points:     len(pts),
		Errors:     []Divergence{},
		Violations: []EnvelopeViolation{},
		Summary:    make(map[string]QualitySummary),
	}
	type gapAgg struct {
		logSum float64
		n      int
	}
	gaps := make(map[string]*gapAgg)
	for i := range results {
		r := &results[i]
		if r.Error != nil {
			rep.Errors = append(rep.Errors, *r.Error)
			continue
		}
		if r.Eligible {
			rep.Eligible++
		}
		rep.Violations = append(rep.Violations, r.Violations...)
		for name, m := range r.Measures {
			sum := rep.Summary[name]
			sum.Points++
			sum.SpillOps += m.SpillOps
			if r.Eligible {
				sum.EligiblePoints++
				sum.OptimumSpill += r.Optimum
				if m.Gap > sum.MaxGap {
					sum.MaxGap = m.Gap
				}
				ga := gaps[name]
				if ga == nil {
					ga = &gapAgg{}
					gaps[name] = ga
				}
				ga.logSum += math.Log(m.Gap)
				ga.n++
			}
			rep.Summary[name] = sum
		}
	}
	for name, ga := range gaps {
		sum := rep.Summary[name]
		sum.GeomeanGap = math.Exp(ga.logSum / float64(ga.n))
		rep.Summary[name] = sum
	}
	sort.Slice(rep.Violations, func(i, j int) bool {
		if rep.Violations[i].Envelope != rep.Violations[j].Envelope {
			return rep.Violations[i].Envelope < rep.Violations[j].Envelope
		}
		return rep.Violations[i].Cell.String() < rep.Violations[j].Cell.String()
	})
	if keepResults {
		rep.Results = results
	}
	return rep
}

// metricOf selects the envelope metric from a measure.
func metricOf(m AllocatorMeasure, metric string) int64 {
	switch metric {
	case MetricSpillLoads:
		return m.SpillLoads
	case MetricEvictLoads:
		return m.EvictLoads
	case MetricMemOps:
		return m.MemOps
	default:
		return m.SpillOps
	}
}

// checkQualityPoint measures one point: a profiled reference run, the
// oracle optimum, every allocator's spill traffic, and the envelope
// checks. stmts > 0 overrides the profile's statement budget (used by
// shrinking).
func checkQualityPoint(pt QualityPoint, stmts int, allocators []string, o *QualityOptions) QualityCellResult {
	res := QualityCellResult{QualityPoint: pt, Measures: make(map[string]AllocatorMeasure)}
	fail := func(allocator, kind, detail string) QualityCellResult {
		res.Error = &Divergence{
			Cell:     Cell{Allocator: allocator, Machine: pt.Machine, Profile: pt.Profile, Seed: pt.Seed},
			Mismatch: Mismatch{Kind: kind, Detail: detail},
		}
		return res
	}

	maxSteps := o.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	input := o.Input
	if input == nil {
		input = defaultInput
	}

	mach, err := machineFor(pt.Machine)
	if err != nil {
		return fail("", KindConfigError, err.Error())
	}
	cfg, err := progs.ProfileGen(pt.Profile, pt.Seed)
	if err != nil {
		return fail("", KindConfigError, err.Error())
	}
	if stmts > 0 {
		cfg.Stmts = stmts
	}
	prog := progs.Random(mach, cfg)

	pf, ref, err := oracle.CollectProfile(prog, mach, input, maxSteps)
	if err != nil {
		return fail("", KindExecError, fmt.Sprintf("reference execution: %v", err))
	}
	optimum, proven := oracle.OptimalCost(prog, mach, pf, o.limits())
	res.Eligible = proven
	if proven {
		res.Optimum = optimum
	}

	for _, name := range allocators {
		var allocated *ir.Program
		if name == "oracle" {
			// The registry oracle plans with static weights; the quality
			// run feeds it the recorded profile so its measured traffic
			// must land exactly on the proven optimum — a live check of
			// the cost model on every eligible point.
			a := oracle.New(mach)
			a.SetLimits(o.limits())
			a.SetProfile(pf)
			allocated, _, err = alloc.Pipeline{Mach: mach, Verify: true}.Program(a, prog)
		} else {
			allocated, _, err = Allocate(prog, mach, name)
		}
		if err != nil {
			return fail(name, KindAllocError, err.Error())
		}
		got, err := vm.Run(allocated, vm.Config{Mach: mach, Input: input, MaxSteps: maxSteps, Paranoid: true})
		if err != nil {
			return fail(name, KindExecError, fmt.Sprintf("allocated execution: %v", err))
		}
		if mm := Diff(ref, got); mm != nil {
			return fail(name, mm.Kind, mm.Detail)
		}
		c := &got.Counters
		m := AllocatorMeasure{
			SpillOps:   c.SpillOverhead(),
			SpillLoads: c.ByTag[ir.TagScanLoad] + c.ByTag[ir.TagResolveLoad],
			EvictLoads: c.ByTag[ir.TagScanLoad],
			MemOps: c.ByTag[ir.TagScanLoad] + c.ByTag[ir.TagScanStore] +
				c.ByTag[ir.TagResolveLoad] + c.ByTag[ir.TagResolveStore],
		}
		if proven {
			m.Gap = float64(m.MemOps+1) / float64(optimum+1)
		}
		res.Measures[name] = m
	}

	violate := func(envName, subject, detail string) {
		res.Violations = append(res.Violations, EnvelopeViolation{
			Envelope: envName,
			Divergence: Divergence{
				Cell:     Cell{Allocator: subject, Machine: pt.Machine, Profile: pt.Profile, Seed: pt.Seed},
				Mismatch: Mismatch{Kind: KindQuality, Detail: detail},
			},
		})
	}

	// Oracle exactness is a hard invariant, not a tunable envelope: on
	// every eligible point the profile-fed oracle's measured traffic
	// must equal its predicted optimum in both directions (above means
	// the rewrite cost more than planned; below means the "optimum"
	// was not one).
	if om, ok := res.Measures["oracle"]; proven && ok && om.SpillOps != optimum {
		violate("oracle-exactness", "oracle", fmt.Sprintf(
			"oracle measured %d spill ops against its own proven optimum %d", om.SpillOps, optimum))
	}

	for _, e := range o.envelopes() {
		sm, ok := res.Measures[e.Subject]
		if !ok {
			continue
		}
		var base int64
		baseName := e.Baseline
		if e.Baseline == "" {
			if !proven {
				continue
			}
			base = optimum
			baseName = "oracle-optimum"
		} else {
			bm, ok := res.Measures[e.Baseline]
			if !ok {
				continue
			}
			base = metricOf(bm, e.Metric)
		}
		subj := metricOf(sm, e.Metric)
		if float64(subj) > e.Factor*float64(base)+float64(e.Slack) {
			violate(e.Name, e.Subject, fmt.Sprintf(
				"%s(%s)=%d exceeds %g×%s(%s)+%d = %g",
				e.Metric, e.Subject, subj, e.Factor, e.Metric, baseName, e.Slack,
				e.Factor*float64(base)+float64(e.Slack)))
		}
	}
	return res
}

// shrinkQuality minimizes a violating point by halving the generator's
// statement budget while the named envelope still breaks, mirroring
// the semantic shrinker: the point plus the returned budget is the
// reproduction recipe.
func shrinkQuality(pt QualityPoint, envelope string, allocators []string, o *QualityOptions) int {
	cfg, err := progs.ProfileGen(pt.Profile, pt.Seed)
	if err != nil {
		return 0
	}
	best := cfg.Stmts
	for s := cfg.Stmts / 2; s >= 1; s /= 2 {
		r := checkQualityPoint(pt, s, allocators, o)
		again := false
		for _, v := range r.Violations {
			if v.Envelope == envelope {
				again = true
				break
			}
		}
		if !again {
			break
		}
		best = s
	}
	return best
}
