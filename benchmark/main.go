// Command benchmark is this repository's benchmark: four workloads that
// drive the allocator through its public entry points (regalloc.Engine,
// the ir/irbin/corpus codecs, and a real lsra-served process over
// loopback HTTP), check every output on the VM against the unallocated
// program, and print the end-to-end metrics BENCHMARK.json names. With
// -trace 1 it instead records spans around the calls into each layer and
// prints the per-layer metrics. run.sh builds it; README.md documents
// the workloads, the metrics and how to compare two commits.
//
//	bash benchmark/run.sh -workload <name|all> -seed <n> -seconds <s> -trace <0|1>
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/ir"
)

// env is what every workload's set-up receives.
type env struct {
	seed   int64
	window time.Duration
	trace  bool
	work   string // scratch directory for corpora and traces
	served string // lsra-served binary
	// corrupt, when set, damages every output before the check sees it;
	// tests use it to show that a wrong output fails the run.
	corrupt func(*ir.Program)
}

type workload struct {
	name  string
	setup func(context.Context, env) (instance, error)
}

var workloads = []workload{
	{"suite-verified", setupSuite},
	{"modules-jit", setupJIT},
	{"serve-hotcold", setupServe},
	{"corpus-batch", setupCorpus},
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 3

type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in the
// order they are printed; a test keeps the two in step.
var endToEnd = []metricSpec{
	{"programs_per_s", "programs/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_ms_per_program", "ms"},
	{"heap_kb_per_program", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"dyn_instrs_ratio", "ratio"},
	{"sim_cycles_ratio", "ratio"},
	{"spill_instrs_pct", "%"},
	{"code_size_ratio", "ratio"},
}

var perLayer = []metricSpec{
	{"cfg.us", "us"},
	{"dataflow.us", "us"},
	{"lifetime.us", "us"},
	{"core.scan_us", "us"},
	{"core.scan_share", "ratio"},
	{"moves.us", "us"},
	{"opt.us", "us"},
	{"verify.us", "us"},
	{"verify.share", "ratio"},
	{"regalloc.other_us", "us"},
	{"regalloc.allocate_us", "us"},
	{"regalloc.unattributed_us", "us"},
	{"regalloc.cachekey_us", "us"},
	{"ir.parse_us", "us"},
	{"ir.print_us", "us"},
	{"irbin.decode_us", "us"},
	{"corpus.decode_us", "us"},
	{"serve.outside_engine_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"http.hit_text_p50_us", "us"},
	{"http.hit_binary_p50_us", "us"},
	{"http.miss_text_p50_us", "us"},
	{"http.miss_binary_p50_us", "us"},
	{"runtime.gc_cycles_per_1k", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"core.candidates", "count"},
	{"core.spilled_temps", "count"},
	{"moves.inserted_instrs", "count"},
	{"loadgen.lateness_p99_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// phases maps each Report.PhaseStats phase to its layer's span and
// metric name.
var phases = []struct{ phase, span, metric string }{
	{"cfg", "cfg", "cfg.us"},
	{"dataflow", "dataflow", "dataflow.us"},
	{"lifetime", "lifetime", "lifetime.us"},
	{"scan", "core.scan", "core.scan_us"},
	{"moves", "moves", "moves.us"},
	{"opt", "opt", "opt.us"},
	{"verify", "verify", "verify.us"},
	{"other", "regalloc.other", "regalloc.other_us"},
}

func phaseSpan(phase string) string {
	for _, ph := range phases {
		if ph.phase == phase {
			return ph.span
		}
	}
	return phase
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: record spans and print per-layer metrics instead of end-to-end ones")
		served  = flag.String("served", ".bench_build/lsra-served", "lsra-served binary")
		work    = flag.String("work", ".bench_build/work", "scratch directory")
		cmpDir  = flag.String("compare", "", "compare mode: directory of paired results written by compare.sh")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark description, for compare mode")
	)
	flag.Parse()
	if *cmpDir != "" {
		if err := compareReport(os.Stdout, *cmpDir, *spec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		return
	}
	var sel []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchmark: want -workload one of %v or all, -trace 0 or 1, -seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	e := env{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, work: *work, served: *served}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	code := 0
	for _, w := range sel {
		res, err := runWorkload(ctx, w, e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(2)
		}
		line, _ := json.Marshal(res) // plain numbers and strings always marshal
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runWorkload sets the workload up, measures it, checks its outputs and
// returns the result line. An error means no result: the run could not
// be made, which is different from a run whose outputs were wrong.
func runWorkload(ctx context.Context, w workload, e env) (res result, err error) {
	var inst instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return res, err
			}
		}
		t0 := time.Now()
		if inst, err = w.setup(ctx, e); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()
	resetPeakRSS(inst.pid())
	if e.trace {
		return traceRun(ctx, w, e, inst)
	}

	m, err := inst.window(ctx, e.window, false)
	if err != nil {
		return res, err
	}
	peak, err := peakRSSMiB(inst.pid())
	if err != nil {
		return res, err
	}
	q, err := inst.check(nil)
	if err != nil {
		return res, err
	}
	lat := summarize(m.lat, m.at)
	vals := map[string]float64{
		"programs_per_s":      float64(m.doneOps) / (float64(m.doneNs) / 1e9),
		"latency_p50_us":      lat.P50 / 1e3,
		"latency_p99_us":      lat.Tail / 1e3,
		"cpu_ms_per_program":  float64(m.use.cpuNs) / 1e6 / float64(m.attempted),
		"heap_kb_per_program": float64(m.use.heapBytes) / 1024 / float64(m.attempted),
		"peak_rss_mb":         peak,
		"setup_s":             median(setups),
		"dyn_instrs_ratio":    ratio(q.outDyn, q.refDyn),
		"sim_cycles_ratio":    ratio(q.outCycles, q.refCycles),
		"spill_instrs_pct":    100 * ratio(q.spill, q.outDyn),
		"code_size_ratio":     ratio(q.outStatic, q.srcStatic),
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops, %d failed; latency tail is the median p%.2f of %d blocks of %d samples; %d outputs checked, %d wrong; quality over %d programs\n",
		w.name, m.attempted, m.failed, lat.TailPct, lat.Blocks, lat.N/lat.Blocks, q.checked, q.failed, q.programs)
	return newResult(w.name, m.attempted, m.failed+q.failed, endToEnd, vals), nil
}

// traceRun measures the window in four quarters, untraced and traced in
// turn, so tracing overhead is the ratio of the two halves on the same
// inputs; the per-layer metrics come from the traced half, the check and
// the layer probes.
func traceRun(ctx context.Context, w workload, e env, inst instance) (result, error) {
	var plain, traced measurement
	for i := 0; i < 4; i++ {
		m, err := inst.window(ctx, e.window/4, i%2 == 1)
		if err != nil {
			return result{}, err
		}
		if i%2 == 1 {
			traced.add(m)
		} else {
			plain.add(m)
		}
	}
	have := map[string]bool{}
	for _, t := range traced.tracers {
		for _, s := range t.spans {
			have[s.Name] = true
		}
	}
	ptr := newTracer(traceCap)
	q, err := inst.check(ptr)
	if err != nil {
		return result{}, err
	}
	eng, ins := inst.probeEngine(), inst.probeInputs()
	if err := probeCodecs(ins, eng, filepath.Join(e.work, "probe"), have, ptr); err != nil {
		return result{}, err
	}
	sv := traced.serve
	if sv.reqs == 0 {
		if sv, err = probeServe(ctx, e, ins, eng.Machine(), ptr); err != nil {
			return result{}, err
		}
	}
	spans, dropped := mergeSpans(append(traced.tracers, ptr))
	lt := selfTimes(spans)
	path := filepath.Join(e.work, fmt.Sprintf("trace-%s-seed%d.json", w.name, e.seed))
	if err := writeSpans(path, spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d spans (%d ops dropped) in %s; span self times sum to %.4f of op wall time\n",
		w.name, len(spans), dropped, path, lt.selfNs/lt.rootNs)
	vals := layerValues(plain, traced, q, lt, sv)
	return newResult(w.name, plain.attempted+traced.attempted, plain.failed+traced.failed+q.failed, perLayer, vals), nil
}

// layerValues derives the per-layer metrics.
func layerValues(plain, traced measurement, q quality, lt layerTimes, sv serveSample) map[string]float64 {
	v := map[string]float64{}
	eng := traced.engine
	perProgram := func(ns float64) float64 { return ns / float64(eng.programs) / 1e3 }
	var phaseNs float64
	for _, ph := range phases {
		ns := float64(eng.phaseNs[ph.phase])
		phaseNs += ns
		v[ph.metric] = perProgram(ns)
	}
	unattributed := float64(eng.wallNs) - phaseNs
	verifyNs := float64(eng.phaseNs["verify"])
	if verifyNs == 0 {
		// The engine does not verify (modules-jit): the layer's cost is
		// the check's own verify.Verify calls on the same outputs.
		v["verify.us"] = lt.meanUs("verify")
		verifyNs = v["verify.us"] * 1e3 * float64(eng.programs)
		phaseNs += verifyNs
	}
	v["core.scan_share"] = float64(eng.phaseNs["scan"]) / phaseNs
	v["verify.share"] = verifyNs / phaseNs
	v["regalloc.allocate_us"] = perProgram(float64(eng.wallNs))
	v["regalloc.unattributed_us"] = perProgram(unattributed)
	for _, layer := range []string{"regalloc.cachekey", "ir.parse", "ir.print", "irbin.decode", "corpus.decode"} {
		v[layer+"_us"] = lt.meanUs(layer)
	}
	v["serve.outside_engine_us"] = (sv.clientNs - sv.engineNs) / float64(sv.reqs) / 1e3
	v["serve.cache_hit_ratio"] = ratio(sv.hits, sv.hits+sv.misses)
	for _, name := range []string{"http.hit_text", "http.hit_binary", "http.miss_text", "http.miss_binary"} {
		v[name+"_p50_us"] = lt.p50Us(name)
	}
	v["runtime.gc_cycles_per_1k"] = 1000 * float64(traced.use.gcCycles) / float64(traced.attempted)
	v["runtime.gc_cpu_share"] = traced.use.gcCPUNs / float64(traced.use.cpuNs)
	v["core.candidates"] = ratio(q.candidates, q.programs)
	v["core.spilled_temps"] = ratio(q.spilled, q.programs)
	v["moves.inserted_instrs"] = ratio(q.resolve, q.programs)
	v["loadgen.lateness_p99_us"] = summarize(traced.lateness, nil).Tail / 1e3
	if len(plain.hitLat) > 0 {
		v["trace.overhead_ratio"] = summarize(traced.hitLat, nil).P50 / summarize(plain.hitLat, nil).P50
	} else {
		pps := func(m measurement) float64 { return float64(m.doneOps) / float64(m.doneNs) }
		v["trace.overhead_ratio"] = pps(plain) / pps(traced)
	}
	return v
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// newResult assembles the result line and prints each metric by name,
// with its unit, to standard error.
func newResult(name string, attempted, failed int64, specs []metricSpec, vals map[string]float64) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			panic("no value for metric " + s.name) // the tables and the code disagree
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Fprintf(os.Stderr, "%s  %-26s %14.6g %s\n", name, s.name, v, s.unit)
	}
	return res
}
