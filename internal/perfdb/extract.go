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
// long as names stay stable. Sections lsra-bench no longer writes
// (serve, corpus.alloc, corpus.serve_duel, cluster) stay declared so
// stored BENCH files keep their series.
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
				Phase  string `json:"phase"`
				Ns     int64  `json:"ns"`
				Allocs uint64 `json:"allocs"`
			} `json:"phase_stats"`
			HeapAllocs uint64 `json:"heap_allocs"`
			HeapBytes  uint64 `json:"heap_bytes"`
			WallTimeNs int64  `json:"wall_time_ns"`
		} `json:"report"`
	} `json:"allocation"`
	Serve *struct {
		ColdNsPerProgram int64   `json:"cold_ns_per_program"`
		WarmNsPerProgram int64   `json:"warm_ns_per_program"`
		Speedup          float64 `json:"speedup"`
		CacheHitRate     float64 `json:"cache_hit_rate"`
	} `json:"serve"`
	Corpus *struct {
		CorpusPrograms int `json:"corpus_programs"`
		Shards         int `json:"shards"`
		Rungs          []struct {
			Programs         int     `json:"programs"`
			ProgramsPerSec   float64 `json:"programs_per_sec"`
			MBPerSec         float64 `json:"mb_per_sec"`
			AllocsPerProgram float64 `json:"allocs_per_program"`
		} `json:"rungs"`
		Alloc *struct {
			Workers      int     `json:"workers"`
			NsPerProgram int64   `json:"ns_per_program"`
			DecodeShare  float64 `json:"decode_share"`
		} `json:"alloc"`
		ServeDuel *struct {
			ColdTextNsPerProgram   int64   `json:"cold_text_ns_per_program"`
			ColdBinaryNsPerProgram int64   `json:"cold_binary_ns_per_program"`
			Speedup                float64 `json:"speedup"`
		} `json:"serve_duel"`
	} `json:"corpus"`
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
	Cluster *struct {
		ColdNsPerRequest    int64   `json:"cold_ns_per_request"`
		WarmNsPerRequest    int64   `json:"warm_ns_per_request"`
		BinaryNsPerRequest  int64   `json:"binary_ns_per_request"`
		JSONNsPerRequest    int64   `json:"json_ns_per_request"`
		BinarySpeedup       float64 `json:"binary_speedup"`
		WarmHitRate         float64 `json:"warm_hit_rate"`
		UnhedgedP99Ns       int64   `json:"unhedged_p99_ns"`
		HedgedP99Ns         int64   `json:"hedged_p99_ns"`
		HedgeWins           uint64  `json:"hedge_wins"`
		TailSpeedupP99      float64 `json:"tail_speedup_p99"`
		PersistAdmitted     uint64  `json:"persist_admitted"`
		PersistRejectedCost uint64  `json:"persist_rejected_cost"`
		RestartWarmHitRate  float64 `json:"restart_warm_hit_rate"`
	} `json:"cluster"`
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

	// Speed: per-benchmark engine reports, with per-phase ns/allocs
	// accumulated across the suite, plus per-benchmark resource deltas.
	phaseNs := map[string]float64{}
	phaseAllocs := map[string]float64{}
	var totalWall, totalAllocs, totalSpilled float64
	for _, a := range doc.Allocation {
		if a.Report == nil {
			continue
		}
		b := a.Benchmark
		put("alloc."+b+".wall_ns", float64(a.Report.WallTimeNs))
		put("alloc."+b+".heap_allocs", float64(a.Report.HeapAllocs))
		put("alloc."+b+".spilled", float64(a.Report.Totals.SpilledTemps))
		totalWall += float64(a.Report.WallTimeNs)
		totalAllocs += float64(a.Report.HeapAllocs)
		totalSpilled += float64(a.Report.Totals.SpilledTemps)
		for _, ps := range a.Report.PhaseStats {
			phaseNs[ps.Phase] += float64(ps.Ns)
			phaseAllocs[ps.Phase] += float64(ps.Allocs)
		}
		if a.Resources != nil {
			putResources(put, "alloc."+b+".", a.Resources)
		}
	}
	if len(doc.Allocation) > 0 {
		put("alloc.total.wall_ns", totalWall)
		put("alloc.total.heap_allocs", totalAllocs)
		put("alloc.total.spilled", totalSpilled)
	}
	for phase, ns := range phaseNs {
		put("phase."+phase+".ns", ns)
	}
	for phase, n := range phaseAllocs {
		if n > 0 {
			put("phase."+phase+".allocs", n)
		}
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

	// Serving: the content-addressed cache headline of the deleted
	// `lsra-bench -serve`, read from stored documents (BENCH_5 onward).
	if s := doc.Serve; s != nil {
		put("serve_cold_ns", float64(s.ColdNsPerProgram))
		put("serve_warm_ns", float64(s.WarmNsPerProgram))
		put("serve_speedup", s.Speedup)
		put("serve_cache_hit_rate", s.CacheHitRate)
	}

	// Binary-codec corpus ladder: decode-only throughput per rung (keyed
	// by a compact rung name — 100000 → "100k", 1000000 → "1m"; these
	// are decode rates, not allocation rates). The decode+allocate rate
	// and the cold-serve wire-format duel are no longer written; stored
	// documents (BENCH_8, BENCH_16) still carry them.
	if c := doc.Corpus; c != nil {
		for _, r := range c.Rungs {
			name := rungName(r.Programs)
			put("corpus_decode_programs_per_sec_"+name, r.ProgramsPerSec)
			put("corpus_decode_mb_per_sec_"+name, r.MBPerSec)
			put("corpus_decode_allocs_per_program_"+name, r.AllocsPerProgram)
		}
		if a := c.Alloc; a != nil {
			// Documents with alloc.workers time the shard-per-worker
			// loop: wall ns over W engines, a series of its own. Older
			// ones timed one serial engine and keep corpus_alloc_ns.
			if a.Workers > 0 {
				put("corpus_alloc_wall_ns", float64(a.NsPerProgram))
				put("corpus_alloc_workers", float64(a.Workers))
			} else {
				put("corpus_alloc_ns", float64(a.NsPerProgram))
			}
			put("corpus_decode_share", a.DecodeShare)
		}
		if d := c.ServeDuel; d != nil {
			put("serve_cold_text_ns", float64(d.ColdTextNsPerProgram))
			put("serve_cold_binary_ns", float64(d.ColdBinaryNsPerProgram))
			put("serve_binary_speedup", d.Speedup)
		}
		if c.Shards > 0 {
			put("corpus_shard_count", float64(c.Shards))
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

	// Sharded cluster: routing/caching steady state, the hedged-request
	// tail, and the persistent tier's admission + restart behavior. The
	// fleet and lsra-bench -cluster are gone; stored documents
	// (BENCH_7, BENCH_8, BENCH_16) still carry the section, and
	// backfilling them keeps these series readable.
	if cs := doc.Cluster; cs != nil {
		put("cluster_cold_ns", float64(cs.ColdNsPerRequest))
		put("cluster_warm_ns", float64(cs.WarmNsPerRequest))
		put("cluster_warm_hit_rate", cs.WarmHitRate)
		put("cluster_unhedged_p99_ns", float64(cs.UnhedgedP99Ns))
		put("cluster_hedged_p99_ns", float64(cs.HedgedP99Ns))
		put("cluster_hedge_wins", float64(cs.HedgeWins))
		put("cluster_tail_speedup_p99", cs.TailSpeedupP99)
		put("cluster_persist_admitted", float64(cs.PersistAdmitted))
		put("cluster_persist_rejected_cost", float64(cs.PersistRejectedCost))
		put("cluster_restart_warm_hit_rate", cs.RestartWarmHitRate)
		// Binary wire-form duel (absent in documents that predate it).
		if cs.BinaryNsPerRequest > 0 {
			put("cluster_binary_ns", float64(cs.BinaryNsPerRequest))
			put("cluster_json_ns", float64(cs.JSONNsPerRequest))
			put("cluster_binary_speedup", cs.BinarySpeedup)
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

// rungName compresses a rung size into the series-key suffix: whole
// millions as "<n>m", whole thousands as "<n>k", anything else verbatim.
func rungName(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dm", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dk", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
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
