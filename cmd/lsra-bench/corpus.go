package main

// The -corpus section: the million-program decode ladder. The paper's
// speed claim is about allocation, but a front end can only be as fast
// as its program ingestion. The ladder decodes N programs (100k → 1M →
// 10M by default) from an mmap'd corpus at full core saturation,
// cycling the corpus's distinct programs, and reports decode-only
// programs/second per rung plus a runtime-verified allocation count per
// decode (zero in steady state — the claim
// BenchmarkCorpusDecodeSteadyState gates in CI). No rung allocates
// registers: decode+allocate over a corpus is the benchmark's
// corpus-batch workload (benchmark/run.sh).
//
// The corpus itself is a shard set (corpus.OpenSet): -corpus-shards
// controls how many members a generated corpus gets, and -corpus-file
// accepts a single file, a set base name, or a glob.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/irbin"
)

// corpusBench is the -corpus section of the -json document.
type corpusBench struct {
	// CorpusPrograms is the number of distinct programs in the corpus
	// file; rungs larger than that cycle it. CorpusBytes is the file
	// size; Workers the parallelism of the ladder.
	CorpusPrograms int   `json:"corpus_programs"`
	CorpusBytes    int64 `json:"corpus_bytes"`
	// Shards is the member count of the corpus shard set (1 for a
	// single-file corpus).
	Shards  int          `json:"shards"`
	Workers int          `json:"workers"`
	Rungs   []corpusRung `json:"rungs"`
}

// corpusRung is one ladder step.
type corpusRung struct {
	// Programs is the rung size (decodes performed, cycling the corpus);
	// the rates are decode-only.
	Programs       int     `json:"programs"`
	ElapsedNs      int64   `json:"elapsed_ns"`
	ProgramsPerSec float64 `json:"programs_per_sec"`
	MBPerSec       float64 `json:"mb_per_sec"`
	NsPerProgram   int64   `json:"ns_per_program"`
	// AllocsPerProgram is measured with runtime.MemStats around the
	// timed loop (after arena warmup): the zero-copy decode claim,
	// enforced end to end rather than only in a microbenchmark.
	AllocsPerProgram float64 `json:"allocs_per_program"`
}

// parseRungs reads the -corpus-rungs flag: comma-separated ascending
// rung sizes.
func parseRungs(s string) ([]int, error) {
	var rungs []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad rung %q in -corpus-rungs", part)
		}
		rungs = append(rungs, n)
	}
	if len(rungs) == 0 {
		return nil, fmt.Errorf("-corpus-rungs is empty")
	}
	return rungs, nil
}

// corpusOpts collects the -corpus knobs.
type corpusOpts struct {
	// Path is the corpus argument: a file, a set base name, or a glob;
	// empty generates a temporary Shards-member set of Programs distinct
	// programs.
	Path     string
	Programs int
	Shards   int
	Rungs    []int
	// Workers is the parallelism of the ladder (0 = GOMAXPROCS).
	Workers int
}

// runCorpusBench runs the ladder over the corpus set named by opt.Path
// (generated into a temp dir when empty).
func runCorpusBench(opt corpusOpts) (*corpusBench, error) {
	if opt.Path == "" {
		dir, err := os.MkdirTemp("", "lsra-corpus-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opt.Path = filepath.Join(dir, "bench.lsco")
		if err := corpus.Generate(opt.Path, corpus.GenOptions{Count: opt.Programs, Seed: 1, Shards: opt.Shards}); err != nil {
			return nil, err
		}
	}
	r, err := corpus.OpenSet(opt.Path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if r.Count() == 0 {
		return nil, fmt.Errorf("corpus %s is empty", opt.Path)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cb := &corpusBench{
		CorpusPrograms: r.Count(),
		CorpusBytes:    r.Size(),
		Shards:         r.Shards(),
		Workers:        workers,
	}

	// One arena per worker, warmed over the whole corpus so every
	// arena has reached its high-water capacity before anything is
	// timed — after this, the decode loop allocates nothing.
	arenas := make([]*irbin.Arena, workers)
	for w := range arenas {
		arenas[w] = irbin.NewArena()
		for i := 0; i < r.Count(); i++ {
			if _, err := r.Decode(i, arenas[w]); err != nil {
				return nil, err
			}
		}
	}

	for _, n := range opt.Rungs {
		rung, err := runRung(r, arenas, n)
		if err != nil {
			return nil, err
		}
		cb.Rungs = append(cb.Rungs, *rung)
	}
	return cb, nil
}

// runRung decodes n programs across the worker arenas, cycling the
// corpus, and measures wall time plus per-program heap allocations.
// Worker w owns arenas[w] and the index range [n*w/W, n*(w+1)/W).
func runRung(r *corpus.Set, arenas []*irbin.Arena, n int) (*corpusRung, error) {
	workers := len(arenas)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := n * w / workers; i < n*(w+1)/workers; i++ {
				// Decode mutates the arena, so the loop cannot be
				// optimized away; the program itself is dropped — this
				// rung isolates ingestion.
				if _, err := r.Decode(i%r.Count(), arenas[w]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// Bytes decoded = full corpus cycles plus the partial cycle.
	var cycleBytes int64
	for i := 0; i < r.Count(); i++ {
		cycleBytes += int64(len(r.Frame(i)))
	}
	decodedBytes := cycleBytes * int64(n/r.Count())
	for i := 0; i < n%r.Count(); i++ {
		decodedBytes += int64(len(r.Frame(i)))
	}
	rung := &corpusRung{
		Programs:  n,
		ElapsedNs: elapsed.Nanoseconds(),
	}
	if s := elapsed.Seconds(); s > 0 {
		rung.ProgramsPerSec = float64(n) / s
		rung.MBPerSec = float64(decodedBytes) / (1 << 20) / s
	}
	rung.NsPerProgram = elapsed.Nanoseconds() / int64(n)
	rung.AllocsPerProgram = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	return rung, nil
}
