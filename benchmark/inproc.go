package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	regalloc "repro"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/progs"
)

// traceCap bounds the spans one goroutine keeps in memory during a
// traced run (about 6 MiB); ops past it are left out of the trace.
const traceCap = 1 << 17

// inproc drives regalloc.Engine inside this process. Each worker runs a
// closed loop over its own range of inputs with its own engine and, when
// the inputs come from a corpus, its own decode arena.
type inproc struct {
	mach    *regalloc.Machine
	inputs  []input     // in-memory inputs; nil when reading a corpus
	set     *corpus.Set // corpus-batch's inputs
	dir     string      // corpus files, removed by close
	engines []*regalloc.Engine
	arenas  []*irbin.Arena
	ranges  [][2]int // input index range of each worker
	cursor  []int    // next input of each worker; windows continue it
	ops     []int64  // ops each worker has run, for span op ids

	keep      func(i int) bool // whether output i is kept for the check
	inQuality func(i int) bool // whether output i counts in quality
	// twin, for engines built without the verifier, is the same engine
	// with it; the check verifies every output through it.
	twin    *regalloc.Engine
	outs    []*ir.Program
	reps    []*regalloc.Report
	corrupt func(*ir.Program)
}

func newInMemory(mach *regalloc.Machine, inputs []input, eng *regalloc.Engine, e env) *inproc {
	return &inproc{
		mach: mach, inputs: inputs, engines: []*regalloc.Engine{eng},
		ranges: [][2]int{{0, len(inputs)}}, cursor: []int{0}, ops: []int64{0},
		keep: func(int) bool { return true }, inQuality: func(int) bool { return true },
		outs: make([]*ir.Program, len(inputs)), reps: make([]*regalloc.Report, len(inputs)),
		corrupt: e.corrupt,
	}
}

// setupSuite builds suite-verified: engine defaults (binpack, DCE,
// peephole, verify) at parallelism 1 on the alpha machine. Its quality
// set is the eleven Table 1 programs, so its quality metrics are the
// paper's Table 1 and 2 measurements and do not move with the seed.
func setupSuite(ctx context.Context, e env) (instance, error) {
	mach := regalloc.Alpha()
	eng, err := regalloc.New(mach, regalloc.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	w := newInMemory(mach, suiteInputs(mach, e.seed), eng, e)
	w.inQuality = func(i int) bool { return i < len(progs.Suite()) }
	return w, w.warm(ctx, len(w.inputs))
}

// setupJIT builds modules-jit: the examples/jit engine configuration,
// which trusts the allocator and skips the verifier.
func setupJIT(ctx context.Context, e env) (instance, error) {
	mach := regalloc.Alpha()
	eng, err := regalloc.New(mach, regalloc.WithVerify(false), regalloc.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	twin, err := regalloc.New(mach, regalloc.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	w := newInMemory(mach, jitInputs(mach, e.seed), eng, e)
	w.twin = twin
	return w, w.warm(ctx, len(w.inputs))
}

// corpusSize is the number of programs corpus-batch generates: about
// what two workers allocate in the window, so the window streams through
// the working set rather than re-reading a cached few.
func corpusSize(window time.Duration) int {
	return max(2000, int(1000*window.Seconds()))
}

// setupCorpus builds corpus-batch: a seeded two-shard corpus on disk and
// two workers, each owning one shard, one arena and one default engine.
func setupCorpus(ctx context.Context, e env) (instance, error) {
	mach := regalloc.Alpha()
	dir := filepath.Join(e.work, "corpus")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "batch.lsco")
	opt := corpus.GenOptions{Count: corpusSize(e.window), Seed: rand.New(rand.NewSource(e.seed)).Int63(),
		Machine: mach, Shards: 2, Workers: 2}
	if err := corpus.Generate(path, opt); err != nil {
		return nil, err
	}
	set, err := corpus.OpenSet(path)
	if err != nil {
		return nil, err
	}
	w := &inproc{mach: mach, set: set, dir: dir, corrupt: e.corrupt,
		outs: make([]*ir.Program, set.Count()), reps: make([]*regalloc.Report, set.Count())}
	lo := 0
	for k := 0; k < set.Shards(); k++ {
		eng, err := regalloc.New(mach)
		if err != nil {
			w.close()
			return nil, err
		}
		hi := lo + set.Shard(k).Count()
		w.engines = append(w.engines, eng)
		w.arenas = append(w.arenas, irbin.NewArena())
		w.ranges = append(w.ranges, [2]int{lo, hi})
		w.cursor = append(w.cursor, lo)
		w.ops = append(w.ops, 0)
		lo = hi
	}
	// Every 8th of the first 4096 programs of each shard is kept and
	// checked. The window reaches them in its first seconds, so these 1024
	// programs, the quality set, are the same for every run.
	w.keep = func(i int) bool { j := i - w.shardStart(i); return j%8 == 0 && j < 8*512 }
	w.inQuality = w.keep
	if err := w.warm(ctx, 64); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *inproc) shardStart(i int) int {
	for _, r := range w.ranges {
		if i < r[1] {
			return r[0]
		}
	}
	return 0
}

// warm allocates the first n inputs of every worker once, unmeasured, so
// pooled allocator scratch and arenas reach their steady size.
func (w *inproc) warm(ctx context.Context, n int) error {
	for k, r := range w.ranges {
		for i := r[0]; i < min(r[1], r[0]+n); i++ {
			prog, err := w.fetch(k, i)
			if err == nil {
				_, _, err = w.engines[k].AllocateProgram(ctx, prog)
			}
			if err != nil {
				return fmt.Errorf("warm-up, input %d: %w", i, err)
			}
		}
	}
	return nil
}

// fetch returns input i for worker k: from memory, or decoded from the
// corpus into the worker's arena.
func (w *inproc) fetch(k, i int) (*ir.Program, error) {
	if w.set == nil {
		return w.inputs[i].prog, nil
	}
	return w.set.Decode(i, w.arenas[k])
}

func (w *inproc) window(ctx context.Context, d time.Duration, traced bool) (measurement, error) {
	per := make([]measurement, len(w.engines))
	trs := make([]*tracer, len(w.engines))
	u0 := selfUsage()
	start := now()
	deadline := start + int64(d)
	var wg sync.WaitGroup
	for k := range w.engines {
		if traced {
			trs[k] = newTracer(traceCap)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[k] = w.worker(ctx, k, deadline, trs[k])
		}()
	}
	wg.Wait()
	end := now()
	var m measurement
	for _, p := range per {
		m.add(p)
	}
	m.doneOps, m.doneNs = m.attempted-m.failed, end-start
	m.use = selfUsage().sub(u0)
	if traced {
		m.tracers = trs
	}
	return m, ctx.Err()
}

// worker is one closed-loop client: it issues its next op as soon as the
// previous one returns, until the deadline.
func (w *inproc) worker(ctx context.Context, k int, deadline int64, tr *tracer) measurement {
	var m measurement
	eng := w.engines[k]
	prevEnd := now()
	for {
		start := now()
		if start >= deadline || ctx.Err() != nil {
			return m
		}
		m.lateness = append(m.lateness, float64(start-prevEnd))
		i := w.cursor[k]
		if w.cursor[k]++; w.cursor[k] == w.ranges[k][1] {
			w.cursor[k] = w.ranges[k][0]
		}
		prog, err := w.fetch(k, i)
		decoded := now()
		var out *ir.Program
		var rep *regalloc.Report
		if err == nil {
			out, rep, err = eng.AllocateProgram(ctx, prog)
		}
		end := now()
		prevEnd = end
		m.attempted++
		m.lat = append(m.lat, float64(end-start))
		m.at = append(m.at, start)
		if err != nil {
			m.failed++
			if m.failed == 1 {
				fmt.Fprintf(os.Stderr, "benchmark: input %d: %v\n", i, err)
			}
			continue
		}
		m.engine.addReport(end-decoded, rep)
		w.ops[k]++
		if tr.reserve(3 + len(rep.PhaseStats)) {
			op := int64(k)<<40 | w.ops[k]
			root := tr.add(op, 0, "op", start, end)
			if w.set != nil {
				tr.add(op, root, "corpus.decode", start, decoded)
			}
			a := tr.add(op, root, "regalloc.allocate", decoded, end)
			// PhaseStats carries durations only. A procedure's phases run
			// one after another, so they are laid out in order; where an
			// engine ran procedures in parallel (corpus-batch) the layout
			// overruns the allocate span by their overlap.
			t := decoded
			for _, ps := range rep.PhaseStats {
				tr.add(op, a, phaseSpan(ps.Phase), t, t+ps.Ns)
				t += ps.Ns
			}
		}
		if w.keep(i) && w.outs[i] == nil {
			if w.corrupt != nil {
				w.corrupt(out)
			}
			w.outs[i], w.reps[i] = out, rep
		}
	}
}

// inputAt returns input i for the check, decoded afresh for a corpus.
func (w *inproc) inputAt(i int) (input, error) {
	if w.set == nil {
		return w.inputs[i], nil
	}
	prog, err := irbin.DecodeProgram(w.set.Frame(i))
	return input{name: fmt.Sprintf("corpus/%d", i), prog: prog}, err
}

func (w *inproc) check(tr *tracer) (quality, error) {
	var q quality
	for i, out := range w.outs {
		if out == nil {
			continue
		}
		in, err := w.inputAt(i)
		if err != nil {
			return q, err
		}
		q.checked++
		if w.twin != nil {
			ns, err := verifyTwin(w.twin, in, out)
			if err != nil {
				q.fail(err)
				continue
			}
			t := now()
			probeSpan(tr, "verify", t, t+ns)
		}
		ref, got, err := execBoth(in, out, w.mach)
		if err != nil {
			q.fail(err)
			continue
		}
		if w.inQuality(i) {
			q.add(in, out, ref, got, w.reps[i])
		}
	}
	return q, nil
}

func (w *inproc) pid() int { return os.Getpid() }

func (w *inproc) probeInputs() []input {
	if w.set == nil {
		return w.inputs
	}
	var ins []input
	step := max(1, w.set.Count()/256)
	for i := 0; i < w.set.Count(); i += step {
		in, err := w.inputAt(i)
		if err == nil {
			ins = append(ins, in)
		}
	}
	return ins
}

func (w *inproc) probeEngine() *regalloc.Engine { return w.engines[0] }

func (w *inproc) close() error {
	if w.set == nil {
		return nil
	}
	err := w.set.Close()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}
