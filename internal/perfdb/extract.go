package perfdb

import (
	"encoding/json"
	"fmt"
	"sort"
)

// benchDoc is perfdb's read-side view of one `lsra-bench -json`
// document. It deliberately redeclares only the fields the observatory
// flattens into series (cmd/lsra-bench owns the full write-side shape);
// unknown fields are ignored, so the two can evolve independently as
// long as names stay stable. Sections no current run writes (serve,
// corpus, cluster, the engine's sampled heap counters) are not
// declared: the committed BENCH files still carry them as documents,
// but they yield no series.
type benchDoc struct {
	Meta      *Meta      `json:"meta"`
	Resources *Resources `json:"resources"`
	Table1    []struct {
		Benchmark  string
		InstrRatio float64
	} `json:"table1"`
	Table2 []struct {
		Benchmark   string
		BinpackPct  float64
		ColoringPct float64
	} `json:"table2"`
	Sweep []struct {
		Machine   string  `json:"machine"`
		Allocator string  `json:"allocator"`
		SpillPct  float64 `json:"spill_pct"`
	} `json:"sweep"`
	Allocation []struct {
		Benchmark string     `json:"benchmark"`
		Resources *Resources `json:"resources"`
		Report    *struct {
			Totals struct {
				SpilledTemps int64
			} `json:"totals"`
			PhaseStats []struct {
				Phase string `json:"phase"`
				Ns    int64  `json:"ns"`
			} `json:"phase_stats"`
			WallTimeNs int64 `json:"wall_time_ns"`
		} `json:"report"`
	} `json:"allocation"`
	Quality *struct {
		Points     int `json:"points"`
		Eligible   int `json:"eligible"`
		Errors     int `json:"errors"`
		Violations int `json:"violations"`
		Summary    map[string]struct {
			GeomeanGap float64 `json:"geomean_gap"`
			MaxGap     float64 `json:"max_gap"`
			SpillOps   int64   `json:"spill_ops"`
		} `json:"summary"`
	} `json:"quality"`
	// Benchmark is the repository benchmark's own output, merged into
	// the stamped document by CI: {"seed", "seconds", "workloads":
	// {name: last JSON line of benchmark/run.sh}}. Only the result
	// lines' failure count and metric values become series.
	Benchmark *struct {
		Workloads map[string]struct {
			Failed  int64 `json:"failed"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		} `json:"workloads"`
	} `json:"benchmark"`
}

// Extract flattens one lsra-bench JSON document into a Record. Stamped
// (schema_version ≥ 1) documents carry their own Meta; v0 documents —
// the committed BENCH_2.json / BENCH_5.json predate the observatory —
// fall back to the caller-provided identity (typically git metadata of
// the file itself) with SchemaVersion left at 0 so readers can tell a
// seed point from a live one.
func Extract(data []byte, fallback Meta) (*Record, error) {
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("perfdb: parse bench document: %w", err)
	}
	rec := &Record{Series: map[string]float64{}}
	if doc.Meta != nil {
		rec.Meta = *doc.Meta
	} else {
		rec.Meta = fallback
		rec.Meta.SchemaVersion = 0
	}
	rec.Time = rec.Time.UTC()

	put := func(name string, v float64) { rec.Series[name] = v }

	// Quality: the paper's code-quality axis, longitudinally.
	for _, r := range doc.Table1 {
		put("quality."+r.Benchmark+".instr_ratio", r.InstrRatio)
	}
	for _, r := range doc.Table2 {
		put("quality."+r.Benchmark+".spill_pct.binpack", r.BinpackPct)
		put("quality."+r.Benchmark+".spill_pct.coloring", r.ColoringPct)
	}
	for _, p := range doc.Sweep {
		put("sweep."+p.Machine+"."+p.Allocator+".spill_pct", p.SpillPct)
	}

	// Speed: per-benchmark engine reports, with per-phase ns
	// accumulated across the suite, plus per-benchmark resource deltas.
	phaseNs := map[string]float64{}
	var totalWall, totalSpilled float64
	for _, a := range doc.Allocation {
		if a.Report == nil {
			continue
		}
		b := a.Benchmark
		put("alloc."+b+".wall_ns", float64(a.Report.WallTimeNs))
		put("alloc."+b+".spilled", float64(a.Report.Totals.SpilledTemps))
		totalWall += float64(a.Report.WallTimeNs)
		totalSpilled += float64(a.Report.Totals.SpilledTemps)
		for _, ps := range a.Report.PhaseStats {
			phaseNs[ps.Phase] += float64(ps.Ns)
		}
		if a.Resources != nil {
			putResources(put, "alloc."+b+".", a.Resources)
		}
	}
	if len(doc.Allocation) > 0 {
		put("alloc.total.wall_ns", totalWall)
		put("alloc.total.spilled", totalSpilled)
	}
	for phase, ns := range phaseNs {
		put("phase."+phase+".ns", ns)
	}

	// Repository benchmark: each workload's end-to-end metrics as
	// benchmark/run.sh printed them — the numbers BENCHMARK.json bounds
	// and perf claims are made against — plus its failed operations.
	if bm := doc.Benchmark; bm != nil {
		for w, res := range bm.Workloads {
			if len(res.Metrics) == 0 {
				continue
			}
			for m, v := range res.Metrics {
				put("bench."+w+"."+m, v.Value)
			}
			put("bench."+w+".failed", float64(res.Failed))
		}
	}

	// Quality frontier: each allocator's spill-traffic gap against the
	// oracle's proven optimum, plus the grid's health counters. A
	// quality regression (a geomean creeping up, an envelope violation
	// count going nonzero) trends on the dashboard exactly like a speed
	// regression.
	if q := doc.Quality; q != nil {
		put("quality_points_total", float64(q.Points))
		put("quality_points_eligible", float64(q.Eligible))
		put("quality_envelope_violations", float64(q.Violations+q.Errors))
		for name, s := range q.Summary {
			put("quality_gap_"+name, s.GeomeanGap)
			put("quality_gap_max_"+name, s.MaxGap)
			put("quality_spill_ops_"+name, float64(s.SpillOps))
		}
	}

	// Process-wide resource attribution (v1 records only).
	if doc.Resources != nil {
		putResources(put, "rusage.", doc.Resources)
	}

	if len(rec.Series) == 0 {
		return nil, fmt.Errorf("perfdb: bench document contains no extractable series")
	}
	return rec, nil
}

// putResources flattens a Resources snapshot under a series prefix; the
// GC counters get their own sub-prefix so gc cost reads as its own group
// on the dashboard.
func putResources(put func(string, float64), prefix string, r *Resources) {
	if r.MaxRSSBytes > 0 {
		put(prefix+"max_rss_bytes", float64(r.MaxRSSBytes))
	}
	put(prefix+"user_cpu_ns", float64(r.UserCPUNs))
	put(prefix+"sys_cpu_ns", float64(r.SysCPUNs))
	put(prefix+"gc.cycles", float64(r.GCCycles))
	put(prefix+"gc.cpu_ns", float64(r.GCCPUNs))
	put(prefix+"gc.heap_alloc_bytes", float64(r.HeapAllocBytes))
}

// MetricNames returns the sorted series names of a record — handy for
// tests and the /commits endpoint's series_count.
func (r *Record) MetricNames() []string {
	names := make([]string, 0, len(r.Series))
	for n := range r.Series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
