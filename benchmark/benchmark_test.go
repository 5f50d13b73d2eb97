package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	regalloc "repro"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/irbin"
)

var (
	servedOnce sync.Once
	servedPath string
	servedErr  error
)

// servedBinary builds lsra-served once per test binary.
func servedBinary(t *testing.T) string {
	t.Helper()
	servedOnce.Do(func() {
		dir, err := os.MkdirTemp("", "lsra-benchmark-test")
		if err != nil {
			servedErr = err
			return
		}
		servedPath = filepath.Join(dir, "lsra-served")
		cmd := exec.Command("go", "build", "-o", servedPath, "./cmd/lsra-served")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			servedErr = &buildError{err, out}
		}
	})
	if servedErr != nil {
		t.Fatal(servedErr)
	}
	return servedPath
}

type buildError struct {
	err error
	out []byte
}

func (e *buildError) Error() string {
	return "build lsra-served: " + e.err.Error() + "\n" + string(e.out)
}

func TestMain(m *testing.M) {
	code := m.Run()
	if servedPath != "" {
		os.RemoveAll(filepath.Dir(servedPath))
	}
	os.Exit(code)
}

func testEnv(t *testing.T, window time.Duration, trace bool) env {
	return env{seed: 1, window: window, trace: trace, work: t.TempDir(), served: servedBinary(t)}
}

func lookup(t *testing.T, name string) workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %s", name)
	return workload{}
}

// TestSmoke runs every workload for about a second, untraced and traced:
// outputs must check, every metric must be present and finite, end-to-end
// metrics must be non-zero, and the spans' self times must add up to the
// ops' wall time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := testEnv(t, time.Second, traced)
			res, err := runWorkload(context.Background(), w, e)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				v := res.Metrics[s.name].Value
				if math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
					t.Errorf("%s: %s = %v", w.name, s.name, v)
				}
			}
			if !traced {
				continue
			}
			b, err := os.ReadFile(filepath.Join(e.work, "trace-"+w.name+"-seed1.json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(b, &spans); err != nil {
				t.Fatal(err)
			}
			if lt := selfTimes(spans); math.Abs(lt.selfNs/lt.rootNs-1) > 0.05 {
				t.Errorf("%s: span self times sum to %.3f of op wall time", w.name, lt.selfNs/lt.rootNs)
			}
		}
	}
}

func frames(ins []input) [][]byte {
	var fs [][]byte
	for _, in := range ins {
		fs = append(fs, irbin.EncodeProgram(in.prog))
	}
	return fs
}

// TestSeedDeterminism: a seed fixes the inputs byte for byte, another
// seed changes them, and a run's quality counts repeat exactly.
func TestSeedDeterminism(t *testing.T) {
	alpha := regalloc.Alpha()
	x86, err := regalloc.ParseMachine(serveMachine)
	if err != nil {
		t.Fatal(err)
	}
	gens := map[string]func(seed int64) []input{
		"suite-verified": func(s int64) []input { return suiteInputs(alpha, s) },
		"modules-jit":    func(s int64) []input { return jitInputs(alpha, s) },
		"serve-hotcold":  func(s int64) []input { return randomInputs(x86, rand.New(rand.NewSource(s)), 100) },
	}
	for name, gen := range gens {
		a, b, c := frames(gen(1)), frames(gen(1)), frames(gen(2))
		if !slices.EqualFunc(a, b, bytes.Equal) {
			t.Errorf("%s: seed 1 gave different inputs twice", name)
		}
		if slices.EqualFunc(a, c, bytes.Equal) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
	dir := t.TempDir()
	gen := func(name string, seed int64) []byte {
		path := filepath.Join(dir, name+".lsco")
		opt := corpus.GenOptions{Count: 64, Seed: rand.New(rand.NewSource(seed)).Int63(), Machine: alpha, Shards: 2, Workers: 2}
		if err := corpus.Generate(path, opt); err != nil {
			t.Fatal(err)
		}
		b0, err0 := os.ReadFile(corpus.ShardPath(path, 0))
		b1, err1 := os.ReadFile(corpus.ShardPath(path, 1))
		if err0 != nil || err1 != nil {
			t.Fatal(err0, err1)
		}
		return append(b0, b1...)
	}
	if a, b, c := gen("a", 1), gen("b", 1), gen("c", 2); !bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Error("corpus-batch: the seed does not fix the corpus")
	}

	if testing.Short() {
		return
	}
	quality := []string{"dyn_instrs_ratio", "sim_cycles_ratio", "spill_instrs_pct", "code_size_ratio"}
	for _, name := range []string{"suite-verified", "modules-jit"} {
		var runs [2]result
		for i := range runs {
			if runs[i], err = runWorkload(context.Background(), lookup(t, name), testEnv(t, time.Second, false)); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range quality {
			if a, b := runs[0].Metrics[q].Value, runs[1].Metrics[q].Value; a != b {
				t.Errorf("%s: %s %v then %v on the same seed", name, q, a, b)
			}
		}
	}
}

// swapOneRegister makes the first register-reading ALU instruction of
// main read another register of the same class.
func swapOneRegister(mach *regalloc.Machine) func(*ir.Program) {
	return func(prog *ir.Program) {
		for _, b := range prog.Proc(prog.Main).Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.Add, ir.Sub, ir.Xor, ir.Mul, ir.And, ir.Or:
				default:
					continue
				}
				if len(in.Uses) == 0 || in.Uses[0].Kind != ir.KindReg {
					continue
				}
				for _, r := range mach.AllocOrder(mach.RegClass(in.Uses[0].Reg)) {
					if r != in.Uses[0].Reg {
						in.Uses[0].Reg = r
						return
					}
				}
			}
		}
	}
}

// TestWrongOutputFails corrupts one register in every output: the check
// must catch it and the run must come out incorrect (main then exits 1).
func TestWrongOutputFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, name := range []string{"suite-verified", "serve-hotcold"} {
		e := testEnv(t, 300*time.Millisecond, false)
		mach := regalloc.Alpha()
		if name == "serve-hotcold" {
			mach, _ = regalloc.ParseMachine(serveMachine)
		}
		e.corrupt = swapOneRegister(mach)
		res, err := runWorkload(context.Background(), lookup(t, name), e)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted outputs passed the check (correct %v, failed %d)", name, res.Correct, res.Failed)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, the benchmark runs %v", names, workloadNames())
	}
	var maxBound float64
	for i, m := range spec.EndToEnd {
		if i >= len(endToEnd) || m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), want %v", i, m.Name, m.Unit, endToEnd[min(i, len(endToEnd)-1)])
		}
		if m.Name != "setup_s" {
			maxBound = math.Max(maxBound, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if i >= len(perLayer) || m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), want %v", i, m.Name, m.Unit, perLayer[min(i, len(perLayer)-1)])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the benchmark prints %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound <= maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
}
