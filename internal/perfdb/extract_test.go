package perfdb

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// stampedDoc builds a minimal v1 lsra-bench document for tests.
func stampedDoc(t *testing.T, commit string, at time.Time, serveCold, scanNs float64) []byte {
	t.Helper()
	doc := map[string]any{
		"meta": Meta{SchemaVersion: SchemaVersion, Commit: commit, Time: at, GoVersion: "go1.24.0", Host: "linux/amd64/test/8cpu"},
		"allocation": []map[string]any{{
			"benchmark": "wc",
			"resources": Resources{MaxRSSBytes: 32 << 20, UserCPUNs: 5e6, SysCPUNs: 1e6, GCCycles: 2, GCCPUNs: 1e5, HeapAllocBytes: 4096},
			"report": map[string]any{
				"totals":       map[string]any{"SpilledTemps": 3},
				"phase_stats":  []map[string]any{{"phase": "scan", "ns": scanNs, "allocs": 7}},
				"heap_allocs":  358,
				"wall_time_ns": 236367,
			},
		}},
		"serve": map[string]any{
			"cold_ns_per_program": serveCold,
			"warm_ns_per_program": serveCold / 2,
			"speedup":             2.0,
			"cache_hit_rate":      0.99,
		},
		"corpus": map[string]any{
			"corpus_programs": 20000,
			"shards":          16,
			"rungs": []map[string]any{
				{"programs": 100000, "programs_per_sec": 51000.0, "mb_per_sec": 142.0, "allocs_per_program": 0.0},
				{"programs": 1000000, "programs_per_sec": 52000.0, "mb_per_sec": 145.0, "allocs_per_program": 0.0},
			},
			"alloc":      map[string]any{"workers": 4, "ns_per_program": 1.9e6, "decode_share": 0.011},
			"serve_duel": map[string]any{"cold_text_ns_per_program": 2.4e6, "cold_binary_ns_per_program": 1.6e6, "speedup": 1.5},
		},
		"cluster": map[string]any{
			"cold_ns_per_request":   3.1e6,
			"warm_ns_per_request":   1.6e6,
			"warm_hit_rate":         1.0,
			"unhedged_p99_ns":       2.9e7,
			"hedged_p99_ns":         1.1e7,
			"hedge_wins":            12,
			"tail_speedup_p99":      2.6,
			"persist_admitted":      6,
			"persist_rejected_cost": 10,
			"restart_warm_hit_rate": 1.0,
			"binary_ns_per_request": 1.2e6,
			"json_ns_per_request":   1.5e6,
			"binary_speedup":        1.25,
		},
		"quality": map[string]any{
			"points":     168,
			"eligible":   49,
			"errors":     0,
			"violations": 0,
			"summary": map[string]any{
				"binpack": map[string]any{"geomean_gap": 2.602, "max_gap": 632.0, "spill_ops": 95752},
				"oracle":  map[string]any{"geomean_gap": 1.0, "max_gap": 1.0, "spill_ops": 34414},
			},
		},
		"resources": Resources{MaxRSSBytes: 64 << 20, UserCPUNs: 9e6, SysCPUNs: 2e6, GCCycles: 5, GCCPUNs: 3e5, HeapAllocBytes: 1 << 20},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestExtractStampedDocument(t *testing.T) {
	at := time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC)
	rec, err := Extract(stampedDoc(t, "abc123", at, 2.9e6, 49000), Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SchemaVersion != SchemaVersion || rec.Commit != "abc123" || !rec.Time.Equal(at) {
		t.Fatalf("meta = %+v", rec.Meta)
	}
	want := map[string]float64{
		"serve_cold_ns":                       2.9e6,
		"serve_warm_ns":                       1.45e6,
		"serve_speedup":                       2.0,
		"serve_cache_hit_rate":                0.99,
		"corpus_decode_programs_per_sec_100k": 51000,
		"corpus_decode_mb_per_sec_100k":       142,
		"corpus_decode_allocs_per_program_1m": 0,
		"corpus_decode_programs_per_sec_1m":   52000,
		"corpus_alloc_wall_ns":                1.9e6,
		"corpus_alloc_workers":                4,
		"corpus_decode_share":                 0.011,
		"corpus_shard_count":                  16,
		"serve_cold_text_ns":                  2.4e6,
		"serve_cold_binary_ns":                1.6e6,
		"serve_binary_speedup":                1.5,
		"cluster_cold_ns":                     3.1e6,
		"cluster_warm_ns":                     1.6e6,
		"cluster_warm_hit_rate":               1.0,
		"cluster_unhedged_p99_ns":             2.9e7,
		"cluster_hedged_p99_ns":               1.1e7,
		"cluster_hedge_wins":                  12,
		"cluster_tail_speedup_p99":            2.6,
		"cluster_persist_admitted":            6,
		"cluster_persist_rejected_cost":       10,
		"cluster_restart_warm_hit_rate":       1.0,
		"cluster_binary_ns":                   1.2e6,
		"cluster_json_ns":                     1.5e6,
		"cluster_binary_speedup":              1.25,
		"quality_points_total":                168,
		"quality_points_eligible":             49,
		"quality_envelope_violations":         0,
		"quality_gap_binpack":                 2.602,
		"quality_gap_max_binpack":             632,
		"quality_spill_ops_binpack":           95752,
		"quality_gap_oracle":                  1.0,
		"quality_gap_max_oracle":              1.0,
		"quality_spill_ops_oracle":            34414,
		"phase.scan.ns":                       49000,
		"phase.scan.allocs":                   7,
		"alloc.wc.wall_ns":                    236367,
		"alloc.wc.heap_allocs":                358,
		"alloc.wc.spilled":                    3,
		"alloc.wc.max_rss_bytes":              32 << 20,
		"alloc.wc.user_cpu_ns":                5e6,
		"alloc.total.wall_ns":                 236367,
		"rusage.max_rss_bytes":                64 << 20,
		"rusage.user_cpu_ns":                  9e6,
		"rusage.sys_cpu_ns":                   2e6,
		"rusage.gc.cycles":                    5,
		"rusage.gc.heap_alloc_bytes":          1 << 20,
	}
	for name, v := range want {
		if got, ok := rec.Series[name]; !ok || got != v {
			t.Errorf("series[%q] = %v (present=%v), want %v", name, got, ok, v)
		}
	}
	if _, ok := rec.Series["corpus_alloc_ns"]; ok {
		t.Error("multi-worker decode+allocate landed in the serial corpus_alloc_ns series")
	}
}

// TestExtractSerialCorpusAlloc pins the split between the two
// decode+allocate series: BENCH_8.json predates alloc.workers (it timed
// one serial engine), so it keeps corpus_alloc_ns and never lands on
// the wall-time series of the shard-per-worker loop.
func TestExtractSerialCorpusAlloc(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_8.json")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Extract(data, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Series["corpus_alloc_ns"]; got != 1775654 {
		t.Errorf("corpus_alloc_ns = %v, want 1775654", got)
	}
	for _, name := range []string{"corpus_alloc_wall_ns", "corpus_alloc_workers"} {
		if _, ok := rec.Series[name]; ok {
			t.Errorf("serial document produced %q", name)
		}
	}
}

// TestExtractV0Fallback pins the compatibility guarantee: the committed
// pre-observatory snapshots (BENCH_2.json here, read from the repo root)
// stay ingestible, taking their identity from the caller's fallback.
func TestExtractV0Fallback(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_2.json")
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 7, 29, 14, 38, 32, 0, time.UTC)
	rec, err := Extract(data, Meta{Commit: "seedsha", Time: at})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SchemaVersion != 0 {
		t.Errorf("v0 fallback schema_version = %d, want 0", rec.SchemaVersion)
	}
	if rec.Commit != "seedsha" || !rec.Time.Equal(at) {
		t.Errorf("fallback identity not applied: %+v", rec.Meta)
	}
	// The historical document must yield the headline series.
	for _, name := range []string{"phase.scan.ns", "alloc.total.wall_ns", "quality.fpppp.instr_ratio"} {
		if _, ok := rec.Series[name]; !ok {
			t.Errorf("v0 extraction missing %q (have %d series)", name, len(rec.Series))
		}
	}
	// And none of the v1-only resource series.
	if _, ok := rec.Series["rusage.max_rss_bytes"]; ok {
		t.Error("v0 document grew rusage series from nowhere")
	}
}

func TestExtractRejectsEmptyAndGarbage(t *testing.T) {
	if _, err := Extract([]byte(`{}`), Meta{}); err == nil {
		t.Error("empty document accepted")
	}
	if _, err := Extract([]byte(`not json`), Meta{}); err == nil {
		t.Error("garbage accepted")
	}
}
