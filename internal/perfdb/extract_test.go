package perfdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Result lines as benchmark/run.sh prints them (seed 1, 20 s, 2-vCPU
// VM). The corpus-batch line is a real line with its outcome edited to
// a failing run.
const (
	hotcoldLine      = `{"correct":true,"attempted":10500,"failed":0,"metrics":{"code_size_ratio":{"value":2.252299234072183,"unit":"ratio"},"cpu_ms_per_program":{"value":1.7914285714285714,"unit":"ms"},"dyn_instrs_ratio":{"value":1.9757332322849563,"unit":"ratio"},"heap_kb_per_program":{"value":523.8134955357143,"unit":"KiB"},"latency_p50_us":{"value":2287.175,"unit":"us"},"latency_p99_us":{"value":7893.948,"unit":"us"},"peak_rss_mb":{"value":58.7578125,"unit":"MiB"},"programs_per_s":{"value":823.5181896984823,"unit":"programs/s"},"setup_s":{"value":0.879937937,"unit":"s"},"sim_cycles_ratio":{"value":3.1271967643006358,"unit":"ratio"},"spill_instrs_pct":{"value":52.12744248133856,"unit":"%"}}}`
	failingBatchLine = `{"correct":false,"attempted":32522,"failed":3,"metrics":{"code_size_ratio":{"value":1.6265192780530253,"unit":"ratio"},"cpu_ms_per_program":{"value":1.1999194391488839,"unit":"ms"},"dyn_instrs_ratio":{"value":1.526574395146698,"unit":"ratio"},"heap_kb_per_program":{"value":268.72475482942315,"unit":"KiB"},"latency_p50_us":{"value":952.823,"unit":"us"},"latency_p99_us":{"value":7005.328,"unit":"us"},"peak_rss_mb":{"value":410.16796875,"unit":"MiB"},"programs_per_s":{"value":1625.9384499261955,"unit":"programs/s"},"setup_s":{"value":1.917329082,"unit":"s"},"sim_cycles_ratio":{"value":2.1857043084258376,"unit":"ratio"},"spill_instrs_pct":{"value":36.33668775436975,"unit":"%"}}}`
)

// benchmarkSection builds the `benchmark` section CI merges into a
// stamped document: workload name → result line.
func benchmarkSection(lines map[string]string) map[string]any {
	workloads := map[string]json.RawMessage{}
	for w, line := range lines {
		workloads[w] = json.RawMessage(line)
	}
	return map[string]any{"seed": 1, "seconds": 20, "workloads": workloads}
}

// stampedDoc builds a minimal v1 lsra-bench document for tests, with
// serve-hotcold's programs_per_s in its benchmark section set to
// programsPerS.
func stampedDoc(t *testing.T, commit string, at time.Time, programsPerS, scanNs float64) []byte {
	t.Helper()
	line := fmt.Sprintf(`{"correct":true,"attempted":10500,"failed":0,"metrics":{"programs_per_s":{"value":%v,"unit":"programs/s"},"latency_p50_us":{"value":2287.175,"unit":"us"}}}`, programsPerS)
	doc := map[string]any{
		"meta": Meta{SchemaVersion: SchemaVersion, Commit: commit, Time: at, GoVersion: "go1.24.0", Host: "linux/amd64/test/8cpu"},
		"allocation": []map[string]any{{
			"benchmark": "wc",
			"resources": Resources{MaxRSSBytes: 32 << 20, UserCPUNs: 5e6, SysCPUNs: 1e6, GCCycles: 2, GCCPUNs: 1e5, HeapAllocBytes: 4096},
			"report": map[string]any{
				"totals":       map[string]any{"SpilledTemps": 3},
				"phase_stats":  []map[string]any{{"phase": "scan", "ns": scanNs}},
				"wall_time_ns": 236367,
			},
		}},
		"benchmark": benchmarkSection(map[string]string{"serve-hotcold": line}),
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
	rec, err := Extract(stampedDoc(t, "abc123", at, 866.2, 49000), Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SchemaVersion != SchemaVersion || rec.Commit != "abc123" || !rec.Time.Equal(at) {
		t.Fatalf("meta = %+v", rec.Meta)
	}
	want := map[string]float64{
		"bench.serve-hotcold.programs_per_s": 866.2,
		"bench.serve-hotcold.latency_p50_us": 2287.175,
		"bench.serve-hotcold.failed":         0,
		"quality_points_total":               168,
		"quality_points_eligible":            49,
		"quality_envelope_violations":        0,
		"quality_gap_binpack":                2.602,
		"quality_gap_max_binpack":            632,
		"quality_spill_ops_binpack":          95752,
		"quality_gap_oracle":                 1.0,
		"quality_gap_max_oracle":             1.0,
		"quality_spill_ops_oracle":           34414,
		"phase.scan.ns":                      49000,
		"alloc.wc.wall_ns":                   236367,
		"alloc.wc.spilled":                   3,
		"alloc.wc.max_rss_bytes":             32 << 20,
		"alloc.wc.user_cpu_ns":               5e6,
		"alloc.total.wall_ns":                236367,
		"rusage.max_rss_bytes":               64 << 20,
		"rusage.user_cpu_ns":                 9e6,
		"rusage.sys_cpu_ns":                  2e6,
		"rusage.gc.cycles":                   5,
		"rusage.gc.heap_alloc_bytes":         1 << 20,
	}
	for name, v := range want {
		if got, ok := rec.Series[name]; !ok || got != v {
			t.Errorf("series[%q] = %v (present=%v), want %v", name, got, ok, v)
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

// TestExtractBenchmarkSection files each workload's result line as
// bench.<workload>.<metric> series plus bench.<workload>.failed, skips a
// workload that reported no metrics, and still rejects a document whose
// only content is an empty section.
func TestExtractBenchmarkSection(t *testing.T) {
	doc, err := json.Marshal(map[string]any{
		"meta": Meta{SchemaVersion: SchemaVersion, Commit: "abc123", Time: time.Date(2026, 10, 17, 10, 0, 0, 0, time.UTC)},
		"benchmark": benchmarkSection(map[string]string{
			"serve-hotcold": hotcoldLine,
			"corpus-batch":  failingBatchLine,
			"modules-jit":   `{"correct":false,"attempted":0,"failed":0,"metrics":{}}`,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Extract(doc, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []struct{ workload, text string }{
		{"serve-hotcold", hotcoldLine},
		{"corpus-batch", failingBatchLine},
	} {
		var res struct {
			Failed  int64
			Metrics map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(line.text), &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != 11 {
			t.Fatalf("%s line has %d metrics, want BENCHMARK.json's 11", line.workload, len(res.Metrics))
		}
		for m, v := range res.Metrics {
			name := "bench." + line.workload + "." + m
			if got, ok := rec.Series[name]; !ok || got != v.Value {
				t.Errorf("series[%q] = %v (present=%v), want %v", name, got, ok, v.Value)
			}
		}
		name := "bench." + line.workload + ".failed"
		if got, ok := rec.Series[name]; !ok || got != float64(res.Failed) {
			t.Errorf("series[%q] = %v (present=%v), want %d", name, got, ok, res.Failed)
		}
	}
	if got := rec.Series["bench.corpus-batch.failed"]; got != 3 {
		t.Errorf("bench.corpus-batch.failed = %v, want 3", got)
	}
	if len(rec.Series) != 2*(11+1) {
		t.Errorf("%d series, want 24: %v", len(rec.Series), rec.MetricNames())
	}

	empty := []byte(`{"meta":{"schema_version":1,"commit":"abc123"},"benchmark":{"seed":1,"seconds":20,"workloads":{"modules-jit":{"correct":true,"attempted":0,"failed":0,"metrics":{}}}}}`)
	if _, err := Extract(empty, Meta{}); err == nil || !strings.Contains(err.Error(), "no extractable series") {
		t.Errorf("empty benchmark section: err = %v, want no extractable series", err)
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

// TestExtractCommittedBenchFiles backfills every committed BENCH file:
// each keeps yielding its series, and none yields a series of the
// sections no current run writes (serve, corpus, cluster) or of the
// engine's sampled heap counters (alloc.*.heap_allocs, phase.*.allocs).
func TestExtractCommittedBenchFiles(t *testing.T) {
	want := map[string]int{
		"BENCH_2.json":  65,
		"BENCH_5.json":  97,
		"BENCH_6.json":  169,
		"BENCH_7.json":  169,
		"BENCH_8.json":  169,
		"BENCH_16.json": 187,
		"BENCH_22.json": 235,
		"BENCH_23.json": 235,
		"BENCH_26.json": 235,
		"BENCH_27.json": 235,
	}
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(want) {
		t.Errorf("%d committed BENCH files, want %d: %v", len(paths), len(want), paths)
	}
	names := map[string]bool{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(path)
		rec, err := Extract(data, Meta{})
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		if n, ok := want[base]; !ok || len(rec.Series) != n {
			t.Errorf("%s: %d series, want %d", base, len(rec.Series), n)
		}
		for name := range rec.Series {
			names[name] = true
		}
	}
	if len(names) != 235 {
		t.Errorf("%d distinct series names, want 235", len(names))
	}
	for name := range names {
		phaseAllocs := strings.HasPrefix(name, "phase.") && strings.HasSuffix(name, ".allocs")
		flat := strings.HasPrefix(name, "serve_") || strings.HasPrefix(name, "corpus_") || strings.HasPrefix(name, "cluster_")
		if phaseAllocs || flat || strings.HasSuffix(name, ".heap_allocs") {
			t.Errorf("committed BENCH files yield %q, a series no current run writes", name)
		}
	}
}
