// Command lsra-bench regenerates the tables and figures of the paper's
// evaluation section on the Alpha-like simulated machine:
//
//	lsra-bench -table1     dynamic instruction counts & simulated cycles
//	lsra-bench -table2     spill code as a percentage of dynamic instructions
//	lsra-bench -figure3    spill-code composition, normalized to binpacking
//	lsra-bench -table3     allocation times vs. candidate counts
//	lsra-bench -ablation   §3.1 two-pass comparison and feature ablations
//	lsra-bench -sweep      registers-vs-quality sweep across machine shapes
//	lsra-bench -quality    spill-traffic gap vs the oracle optimum
//	lsra-bench -alloc      per-benchmark engine allocation reports
//	lsra-bench -all        all of the above
//
// End-to-end throughput of the serving, corpus and engine workloads is
// not measured here: benchmark/run.sh measures it (BENCHMARK.json), and
// the perf observatory reads its result lines from the `benchmark`
// section of a stamped document. Corpus decode is timed by the
// corpus-batch workload, and BenchmarkCorpusDecodeSteadyState holds its
// zero allocations per program under benchguard.
//
// Use -scale to shrink or grow the workloads (1.0 reproduces the default
// experiment size). With -json, every selected section is emitted as one
// machine-readable JSON object on stdout (the shape BENCH_*.json files
// track; the CI bench job uploads it as an artifact); -alloc sections
// carry the engine's aggregate Report including its per-phase PhaseStats
// breakdown.
//
// Every -json document is stamped with a `meta` header (schema_version,
// commit SHA — best-effort `git rev-parse HEAD`, overridable with
// -commit — UTC timestamp, go version, host fingerprint) so the perf
// observatory (internal/perfdb, cmd/lsra-perfd) can ingest it as one
// time-series record, and with resource attribution: getrusage max
// RSS + user/system CPU and runtime/metrics GC counters, process-wide
// in `resources` and per benchmark on each -alloc report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	regalloc "repro"
	"repro/internal/experiments"
	"repro/internal/perfdb"
	"repro/internal/progs"
)

// benchOutput is the -json document: one field per selected section.
type benchOutput struct {
	// Meta stamps the run for the perf observatory: schema version,
	// commit, UTC time, go version, host fingerprint.
	Meta      *perfdb.Meta              `json:"meta,omitempty"`
	Table1    []experiments.Table1Row   `json:"table1,omitempty"`
	Table2    []experiments.Table2Row   `json:"table2,omitempty"`
	Figure3   []experiments.Figure3Row  `json:"figure3,omitempty"`
	Table3    []experiments.Table3Row   `json:"table3,omitempty"`
	Ablations []experiments.AblationRow `json:"ablations,omitempty"`
	// Sweep is the registers-vs-quality curve: one benchmark across the
	// machine presets and a tiny ladder under every allocator.
	Sweep []experiments.SweepPoint `json:"sweep,omitempty"`
	// Allocation holds one engine Report per suite benchmark.
	Allocation []allocReport `json:"allocation,omitempty"`
	// Quality is the quality frontier: per-allocator spill-traffic gap
	// vs the oracle optimum over the default quality grid, with pair
	// envelopes enforced.
	Quality *qualityBench `json:"quality,omitempty"`
	// Resources is the process-wide resource delta over all selected
	// sections: getrusage (max RSS, user/system CPU) plus GC counters.
	Resources *perfdb.Resources `json:"resources,omitempty"`
}

// allocReport pairs a benchmark name with its engine Report and the
// resource delta its run cost, so a stored point attributes cost to a
// phase (PhaseStats) and a resource (rusage/GC) at once.
type allocReport struct {
	Benchmark string            `json:"benchmark"`
	Report    *regalloc.Report  `json:"report"`
	Resources *perfdb.Resources `json:"resources,omitempty"`
}

// resolveCommit returns the commit SHA to stamp: the -commit override
// when given, else best-effort `git rev-parse HEAD` (empty outside a
// git tree — the stamp is still valid, just anonymous).
func resolveCommit(override string) string {
	if override != "" {
		return override
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		t1       = flag.Bool("table1", false, "regenerate Table 1")
		t2       = flag.Bool("table2", false, "regenerate Table 2")
		f3       = flag.Bool("figure3", false, "regenerate Figure 3 data")
		t3       = flag.Bool("table3", false, "regenerate Table 3")
		abl      = flag.Bool("ablation", false, "run the two-pass and feature ablations")
		sweep    = flag.Bool("sweep", false, "registers-vs-quality sweep across machine shapes")
		sweepB   = flag.String("sweep-bench", "eqntott", "benchmark the -sweep runs")
		qualityF = flag.Bool("quality", false, "quality frontier: spill-traffic gap vs the oracle optimum, envelopes enforced")
		allocF   = flag.Bool("alloc", false, "per-benchmark engine allocation reports")
		all      = flag.Bool("all", false, "run everything")
		scale    = flag.Float64("scale", 1.0, "workload scale multiplier")
		jsonOut  = flag.Bool("json", false, "emit the selected sections as JSON")
		algo     = flag.String("algo", "binpack", "allocator for -alloc reports")
		jobs     = flag.Int("jobs", 0, "parallel workers for -alloc (0 = all CPUs)")
		commit   = flag.String("commit", "", "commit `sha` to stamp (default: git rev-parse HEAD)")
	)
	flag.Parse()
	if *all {
		*t1, *t2, *f3, *t3, *abl, *sweep, *allocF, *qualityF = true, true, true, true, true, true, true, true
	}
	if !*t1 && !*t2 && !*f3 && !*t3 && !*abl && !*sweep && !*allocF && !*qualityF {
		flag.Usage()
		os.Exit(2)
	}
	mach := regalloc.Alpha()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "lsra-bench:", err)
		os.Exit(1)
	}

	var out benchOutput
	var err error
	out.Meta = perfdb.Stamp(resolveCommit(*commit))
	startRes := perfdb.ReadResources()
	if *t1 {
		if out.Table1, err = experiments.Table1(mach, *scale); err != nil {
			die(err)
		}
	}
	if *t2 {
		if out.Table2, err = experiments.Table2(mach, *scale); err != nil {
			die(err)
		}
	}
	if *f3 {
		if out.Figure3, err = experiments.Figure3(mach, *scale); err != nil {
			die(err)
		}
	}
	if *t3 {
		if out.Table3, err = experiments.Table3(mach); err != nil {
			die(err)
		}
	}
	if *abl {
		benches := []string{"wc", "eqntott", "li", "fpppp"}
		if out.Ablations, err = experiments.Ablations(mach, benches, *scale); err != nil {
			die(err)
		}
	}
	if *sweep {
		machines := experiments.SweepMachines()
		allocators := []string{"binpack", "twopass", "coloring", "linearscan"}
		if out.Sweep, err = experiments.RegisterSweep(machines, allocators, *sweepB, *scale); err != nil {
			die(err)
		}
	}
	if *qualityF {
		if out.Quality, err = runQualityBench(*scale, *jobs); err != nil {
			die(err)
		}
	}
	if *allocF {
		eng, err := regalloc.New(mach,
			regalloc.WithAlgorithm(*algo),
			regalloc.WithParallelism(*jobs))
		if err != nil {
			die(err)
		}
		for _, b := range progs.Suite() {
			s := int(float64(b.DefaultScale) * *scale)
			if s < 1 {
				s = 1
			}
			prog := b.Build(mach, s)
			before := perfdb.ReadResources()
			_, rep, err := eng.AllocateProgram(context.Background(), prog)
			if err != nil {
				die(fmt.Errorf("%s: %w", b.Name, err))
			}
			delta := perfdb.ReadResources().Sub(before)
			out.Allocation = append(out.Allocation, allocReport{Benchmark: b.Name, Report: rep, Resources: &delta})
		}
	}
	endRes := perfdb.ReadResources().Sub(startRes)
	out.Resources = &endRes

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&out); err != nil {
			die(err)
		}
		return
	}
	printText(&out)
}

func printText(out *benchOutput) {
	if out.Table1 != nil {
		fmt.Println("Table 1: dynamic instruction counts and simulated cycles")
		fmt.Println("(ratio > 1 means poorer binpacking code, as in the paper)")
		fmt.Printf("%-10s %14s %14s %7s %14s %14s %7s\n",
			"benchmark", "binpack", "coloring", "ratio", "bp-cycles", "gc-cycles", "ratio")
		for _, r := range out.Table1 {
			fmt.Printf("%-10s %14d %14d %7.3f %14d %14d %7.3f\n",
				r.Benchmark, r.BinpackInstrs, r.ColoringInstrs, r.InstrRatio,
				r.BinpackCycles, r.ColoringCycles, r.CycleRatio)
		}
		fmt.Println()
	}

	if out.Table2 != nil {
		fmt.Println("Table 2: percentage of dynamic instructions that are spill code")
		fmt.Printf("%-10s %12s %12s\n", "benchmark", "binpack", "coloring")
		for _, r := range out.Table2 {
			fmt.Printf("%-10s %11.3f%% %11.3f%%\n", r.Benchmark, r.BinpackPct, r.ColoringPct)
		}
		fmt.Println()
	}

	if out.Figure3 != nil {
		fmt.Println("Figure 3: spill code composition (dynamic counts; 'norm' is")
		fmt.Println("the bar height: total spill normalized to binpacking's total)")
		fmt.Printf("%-12s %10s %10s %10s %10s %10s %10s %7s\n",
			"bench-scheme", "ev.load", "ev.store", "ev.move", "rs.load", "rs.store", "rs.move", "norm")
		for _, r := range out.Figure3 {
			fmt.Printf("%-12s %10d %10d %10d %10d %10d %10d %7.3f\n",
				r.Benchmark+"-"+r.Scheme,
				r.EvictLoads, r.EvictStores, r.EvictMoves,
				r.ResolveLoads, r.ResolveStores, r.ResolveMoves, r.Normalized)
		}
		fmt.Println()
	}

	if out.Table3 != nil {
		fmt.Println("Table 3: allocation-core time (best of five) vs. candidates")
		fmt.Printf("%-10s %12s %14s %14s %14s\n",
			"module", "candidates", "iedges", "coloring", "binpacking")
		for _, r := range out.Table3 {
			fmt.Printf("%-10s %12d %14d %14s %14s\n",
				r.Module, r.Candidates, r.InterferenceEdges, r.ColoringTime, r.BinpackTime)
		}
		fmt.Println()
	}

	if out.Ablations != nil {
		fmt.Println("Ablations (§3.1 two-pass, §2.5 move optimizations, §2.6 strict")
		fmt.Println("linearity); ratio is relative to the paper configuration")
		fmt.Printf("%-10s %-34s %14s %12s %7s\n", "benchmark", "variant", "instrs", "spill", "ratio")
		for _, r := range out.Ablations {
			fmt.Printf("%-10s %-34s %14d %12d %7.3f\n",
				r.Benchmark, r.Variant, r.Instrs, r.Spill, r.RatioToPaper)
		}
		fmt.Println()
	}

	if out.Sweep != nil {
		fmt.Println("Register sweep: dynamic overhead as the register file narrows")
		fmt.Println("(ratio is instrs relative to the same allocator on the widest machine)")
		fmt.Printf("%-12s %5s %5s  %-12s %12s %10s %8s %7s\n",
			"machine", "ints", "flts", "allocator", "instrs", "spill", "spill%", "ratio")
		for _, p := range out.Sweep {
			fmt.Printf("%-12s %5d %5d  %-12s %12d %10d %7.3f%% %7.3f\n",
				p.Machine, p.IntRegs, p.FloatRegs, p.Allocator, p.Instrs, p.Spill, p.SpillPct, p.RatioToWidest)
		}
		fmt.Println()
	}

	if out.Quality != nil {
		printQuality(out.Quality)
	}

	if out.Allocation != nil {
		fmt.Println("Allocation: engine aggregate per benchmark (rss is the process")
		fmt.Println("high-water mark at that point; cpu/gc columns are per-run deltas)")
		fmt.Printf("%-12s %-12s %8s %12s %10s %12s\n",
			"benchmark", "algorithm", "procs", "candidates", "spilled", "wall")
		for _, ar := range out.Allocation {
			rep := ar.Report
			fmt.Printf("%-12s %-12s %8d %12d %10d %12v\n",
				ar.Benchmark, rep.Algorithm, len(rep.Procs),
				rep.Totals.Candidates, rep.Totals.SpilledTemps, rep.WallTime.Round(0))
			if len(rep.PhaseStats) > 0 {
				fmt.Printf("    phases:")
				for _, ps := range rep.PhaseStats {
					if ps.Ns == 0 {
						continue
					}
					fmt.Printf(" %s %v (%.0f%%)", ps.Phase, time.Duration(ps.Ns).Round(time.Microsecond), 100*ps.Share)
				}
				fmt.Println()
			}
			if res := ar.Resources; res != nil {
				fmt.Printf("    resources: rss %.1f MiB, user %v, sys %v, gc %d cycles / %v\n",
					float64(res.MaxRSSBytes)/(1<<20),
					time.Duration(res.UserCPUNs).Round(time.Millisecond),
					time.Duration(res.SysCPUNs).Round(time.Millisecond),
					res.GCCycles, time.Duration(res.GCCPUNs).Round(time.Millisecond))
			}
		}
		fmt.Println()
	}

	if res := out.Resources; res != nil {
		fmt.Println("Resources: process-wide over all selected sections")
		fmt.Printf("%-14s %12s %12s %10s %10s %14s\n",
			"max-rss", "user-cpu", "sys-cpu", "gc-cycles", "gc-cpu", "heap-alloc")
		fmt.Printf("%-14s %12v %12v %10d %10v %14s\n",
			fmt.Sprintf("%.1f MiB", float64(res.MaxRSSBytes)/(1<<20)),
			time.Duration(res.UserCPUNs).Round(time.Millisecond),
			time.Duration(res.SysCPUNs).Round(time.Millisecond),
			res.GCCycles,
			time.Duration(res.GCCPUNs).Round(time.Millisecond),
			fmt.Sprintf("%.1f MiB", float64(res.HeapAllocBytes)/(1<<20)))
	}
}
