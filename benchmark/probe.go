package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	regalloc "repro"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/irbin"
)

// Layer probes run in traced runs, after the windows, for layers the
// workload's own loop does not call: every per-layer metric then exists
// on every workload, measured on that workload's programs. The map of
// which end-to-end metric a layer can move on which workload (README.md)
// says where a probed layer is off the path.

// probeSpan records a probe call as an op of its own. Probe ops have
// negative ids, apart from the windows' ops.
func probeSpan(tr *tracer, name string, start, end int64) {
	if tr.reserve(1) {
		tr.add(-int64(len(tr.spans)+1), 0, name, start, end)
	}
}

// sample returns up to n inputs spread evenly over ins.
func sample(ins []input, n int) []input {
	if len(ins) <= n {
		return ins
	}
	out := make([]input, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, ins[k*len(ins)/n])
	}
	return out
}

// probeCodecs times direct calls into the ingest-side layers on up to
// 256 of the workload's inputs: the engine's cache key, text print and
// parse, binary decode, and (unless the loop already decodes from a
// corpus, per have) corpus decode from an mmap'd corpus of the same
// programs.
func probeCodecs(ins []input, eng *regalloc.Engine, dir string, have map[string]bool, tr *tracer) error {
	mach := eng.Machine()
	arena := irbin.NewArena()
	var frames [][]byte
	for _, in := range sample(ins, 256) {
		t0 := now()
		eng.CacheKey(in.prog)
		t1 := now()
		var buf bytes.Buffer
		(&ir.Printer{Mach: mach}).WriteProgram(&buf, in.prog)
		t2 := now()
		text := buf.String()
		t3 := now()
		if _, err := ir.ParseProgramString(text, mach); err != nil {
			return fmt.Errorf("probe: parse %s: %w", in.name, err)
		}
		t4 := now()
		frame := irbin.EncodeProgram(in.prog)
		t5 := now()
		if _, _, err := arena.Decode(frame); err != nil {
			return fmt.Errorf("probe: decode %s: %w", in.name, err)
		}
		t6 := now()
		probeSpan(tr, "regalloc.cachekey", t0, t1)
		probeSpan(tr, "ir.print", t1, t2)
		probeSpan(tr, "ir.parse", t3, t4)
		probeSpan(tr, "irbin.decode", t5, t6)
		frames = append(frames, frame)
	}
	if have["corpus.decode"] {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.lsco")
	w, err := corpus.Create(path, "layer probe")
	if err != nil {
		return err
	}
	for _, f := range frames {
		if err := w.AddFrame(f); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	set, err := corpus.OpenSet(path)
	if err != nil {
		return err
	}
	defer set.Close()
	for i := 0; i < set.Count(); i++ {
		t0 := now()
		if _, err := set.Decode(i, arena); err != nil {
			return fmt.Errorf("probe: corpus decode %d: %w", i, err)
		}
		probeSpan(tr, "corpus.decode", t0, now())
	}
	return nil
}

// probeServe starts an lsra-served with default flags and sends it the
// workload's 8 smallest programs, alternating text and binary bodies:
// each program once as a miss and three times as a hit.
func probeServe(ctx context.Context, e env, ins []input, mach *regalloc.Machine, tr *tracer) (serveSample, error) {
	var sv serveSample
	small := slices.Clone(ins)
	slices.SortStableFunc(small, func(a, b input) int { return cmp.Compare(staticInstrs(a.prog), staticInstrs(b.prog)) })
	srv, err := startServer(ctx, e.served, false)
	if err != nil {
		return sv, err
	}
	defer srv.stop()
	s := &served{srv: srv, cl: newClient()}
	defer s.cl.CloseIdleConnections()
	m0, err := srv.metrics()
	if err != nil {
		return sv, err
	}
	for k, in := range small[:min(8, len(small))] {
		p, err := encodeServed(in, mach)
		if err != nil {
			return sv, err
		}
		binary := k%2 == 1
		for rep := 0; rep < 4; rep++ {
			sent := now()
			body, status, err := s.post(ctx, p, binary)
			end := now()
			ans, err := answerOf(body, status, err)
			if err != nil {
				return sv, fmt.Errorf("serve probe, %s: %w", in.name, err)
			}
			if ans.Cached {
				sv.hits++
			} else {
				sv.misses++
			}
			probeSpan(tr, httpSpan(ans.Cached, binary), sent, end)
			sv.reqs++
			sv.clientNs += float64(end - sent)
		}
	}
	m1, err := srv.metrics()
	if err != nil {
		return sv, err
	}
	sv.engineNs = float64(m1.AllocWallNs - m0.AllocWallNs)
	return sv, nil
}
