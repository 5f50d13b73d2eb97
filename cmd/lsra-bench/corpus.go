package main

// The -corpus section: the million-program throughput ladder. The
// paper's speed claim is about allocation, but a service front end can
// only be as fast as its program ingestion — BENCH_5 measured the cold
// serve path dominated by text parsing, not allocation. This section
// quantifies the fix end to end:
//
//   - The ladder decodes N programs (100k → 1M → 10M by default) from
//     an mmap'd corpus at full core saturation, cycling the corpus's
//     distinct programs, and reports decode-only programs/second per
//     rung plus a runtime-verified allocation count per decode (zero in
//     steady state — the claim BenchmarkCorpusDecodeSteadyState gates
//     in CI). No rung allocates registers.
//   - A bounded decode+allocate pass runs the same W workers as the
//     ladder, each decoding and allocating its shard of the programs in
//     turn, and reports the allocation rate; decode's share of it
//     compares the two loops at equal W.
//   - The serve duel replays one workload against two fresh in-process
//     servers — text/JSON vs binary frames — and reports the cold
//     per-program cost of each front end.
//
// The corpus itself is a shard set (corpus.OpenSet): -corpus-shards
// controls how many members a generated corpus gets, and -corpus-file
// accepts a single file, a set base name, or a glob.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	regalloc "repro"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/serve"
)

// corpusBench is the -corpus section of the -json document.
type corpusBench struct {
	// CorpusPrograms is the number of distinct programs in the corpus
	// file; rungs larger than that cycle it. CorpusBytes is the file
	// size; Workers the parallelism of the ladder and of Alloc.
	CorpusPrograms int   `json:"corpus_programs"`
	CorpusBytes    int64 `json:"corpus_bytes"`
	// Shards is the member count of the corpus shard set (1 for a
	// single-file corpus).
	Shards  int          `json:"shards"`
	Workers int          `json:"workers"`
	Rungs   []corpusRung `json:"rungs"`
	// Alloc is the bounded decode+allocate measurement (one engine per
	// worker, full pipeline per program).
	Alloc *corpusAlloc `json:"alloc,omitempty"`
	// ServeDuel is the cold text-vs-binary service front-end duel.
	ServeDuel *serveDuel `json:"serve_duel,omitempty"`
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

// corpusAlloc is the decode+allocate measurement. Workers is the
// number of engines the loop ran; NsPerProgram is its wall time over
// Programs, so it shrinks as Workers grows.
type corpusAlloc struct {
	Programs       int     `json:"programs"`
	Machine        string  `json:"machine"`
	Algorithm      string  `json:"algorithm"`
	Workers        int     `json:"workers"`
	NsPerProgram   int64   `json:"ns_per_program"`
	ProgramsPerSec float64 `json:"programs_per_sec"`
	// DecodeShare is decode's fraction of the combined cost: the first
	// rung's ns/program over this loop's, both from the same workers.
	DecodeShare float64 `json:"decode_share"`
}

// serveDuel is the cold-ingestion duel: the same workload against two
// fresh servers, one fed textual IR over JSON, one binary frames.
type serveDuel struct {
	Machine  string `json:"machine"`
	Programs int    `json:"programs"`
	// ColdTextNsPerProgram / ColdBinaryNsPerProgram are per-program
	// request costs with an empty result cache (every request runs the
	// full pipeline); the difference is the front-end (parse vs decode)
	// plus envelope cost.
	ColdTextNsPerProgram   int64 `json:"cold_text_ns_per_program"`
	ColdBinaryNsPerProgram int64 `json:"cold_binary_ns_per_program"`
	// Speedup is text/binary (> 1 means the binary front end wins).
	Speedup float64 `json:"speedup"`
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
	// Workers is the parallelism of the ladder and of the
	// decode+allocate loop (0 = GOMAXPROCS).
	Workers int
}

// runCorpusBench runs the ladder, the decode+allocate loop and the serve
// duel over the corpus set named by opt.Path (generated into a temp dir
// when empty).
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

	alloc, err := runCorpusAlloc(r, arenas, min(r.Count(), 2000))
	if err != nil {
		return nil, err
	}
	if len(cb.Rungs) > 0 && alloc.NsPerProgram > 0 {
		alloc.DecodeShare = float64(cb.Rungs[0].NsPerProgram) / float64(alloc.NsPerProgram)
	}
	cb.Alloc = alloc

	duel, err := runServeDuel("x86-8")
	if err != nil {
		return nil, err
	}
	cb.ServeDuel = duel
	return cb, nil
}

// shardLoop runs body on workers goroutines, worker w owning the
// index range [n*w/workers, n*(w+1)/workers), and returns the wall time
// and the workers' errors joined.
func shardLoop(workers, n int, body func(w, lo, hi int) error) (time.Duration, error) {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = body(w, n*w/workers, n*(w+1)/workers)
		}(w)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// runRung decodes n programs across the worker arenas, cycling the
// corpus, and measures wall time plus per-program heap allocations.
func runRung(r *corpus.Set, arenas []*irbin.Arena, n int) (*corpusRung, error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	elapsed, err := shardLoop(len(arenas), n, func(w, lo, hi int) error {
		for i := lo; i < hi; i++ {
			// Decode mutates the arena, so the loop cannot be optimized
			// away; the program itself is dropped — this rung isolates
			// ingestion.
			if _, err := r.Decode(i%r.Count(), arenas[w]); err != nil {
				return err
			}
		}
		return nil
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
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

// runCorpusAlloc measures decode + the full allocation pipeline over the
// first n corpus programs with the same worker count as the ladder:
// worker w owns arenas[w] and one single-threaded engine, and decodes
// and allocates its shard of the n programs in turn.
func runCorpusAlloc(r *corpus.Set, arenas []*irbin.Arena, n int) (*corpusAlloc, error) {
	const machine = "alpha"
	mach, err := regalloc.ParseMachine(machine)
	if err != nil {
		return nil, err
	}
	engines := make([]*regalloc.Engine, len(arenas))
	for w := range engines {
		if engines[w], err = regalloc.New(mach, regalloc.WithParallelism(1)); err != nil {
			return nil, err
		}
		// Warm the engine's scratch arenas on one program before timing.
		prog, err := r.Decode(0, arenas[w])
		if err != nil {
			return nil, err
		}
		if _, _, err := engines[w].AllocateProgram(context.Background(), prog); err != nil {
			return nil, err
		}
	}
	elapsed, err := shardLoop(len(arenas), n, func(w, lo, hi int) error {
		for i := lo; i < hi; i++ {
			prog, err := r.Decode(i, arenas[w])
			if err != nil {
				return err
			}
			if _, _, err := engines[w].AllocateProgram(context.Background(), prog); err != nil {
				return fmt.Errorf("corpus program %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ca := &corpusAlloc{
		Programs:     n,
		Machine:      machine,
		Algorithm:    engines[0].Algorithm(),
		Workers:      len(engines),
		NsPerProgram: elapsed.Nanoseconds() / int64(n),
	}
	if s := elapsed.Seconds(); s > 0 {
		ca.ProgramsPerSec = float64(n) / s
	}
	return ca, nil
}

// runServeDuel replays one workload cold against a text-fed and a
// binary-fed server. Fresh servers for each pass: both run with an
// empty result cache, so every request pays the full pipeline and the
// difference isolates the ingestion front end.
func runServeDuel(machine string) (*serveDuel, error) {
	mach, err := regalloc.ParseMachine(machine)
	if err != nil {
		return nil, err
	}
	jobs, err := experiments.Workload(mach, []string{"default", "call-heavy", "straightline"}, 100, 2)
	if err != nil {
		return nil, err
	}
	// Pre-encode both wire forms outside the timed loops.
	texts := make([][]byte, len(jobs))
	frames := make([][]byte, len(jobs))
	for i, job := range jobs {
		body, err := json.Marshal(&serve.AllocateRequest{Machine: machine, Program: job.Text})
		if err != nil {
			return nil, err
		}
		texts[i] = body
		prog, err := ir.ParseProgramString(job.Text, mach)
		if err != nil {
			return nil, err
		}
		frames[i] = irbin.EncodeProgram(prog)
	}

	pass := func(contentType string, bodies [][]byte, url string) (time.Duration, error) {
		s, err := serve.New(serve.Config{Workers: 2, QueueDepth: 64})
		if err != nil {
			return 0, err
		}
		ts := httptest.NewServer(s)
		defer ts.Close()
		client := ts.Client()
		start := time.Now()
		for _, body := range bodies {
			resp, err := client.Post(ts.URL+url, contentType, bytes.NewReader(body))
			if err != nil {
				return 0, err
			}
			_, cerr := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if cerr != nil {
				return 0, cerr
			}
			if resp.StatusCode != 200 {
				return 0, fmt.Errorf("serve duel: status %d", resp.StatusCode)
			}
		}
		return time.Since(start), nil
	}

	coldText, err := pass("application/json", texts, "/allocate")
	if err != nil {
		return nil, err
	}
	coldBin, err := pass(serve.ContentTypeBinaryIR, frames, "/allocate?machine="+machine)
	if err != nil {
		return nil, err
	}
	n := int64(len(jobs))
	d := &serveDuel{
		Machine:                machine,
		Programs:               len(jobs),
		ColdTextNsPerProgram:   coldText.Nanoseconds() / n,
		ColdBinaryNsPerProgram: coldBin.Nanoseconds() / n,
	}
	if d.ColdBinaryNsPerProgram > 0 {
		d.Speedup = float64(d.ColdTextNsPerProgram) / float64(d.ColdBinaryNsPerProgram)
	}
	return d, nil
}
