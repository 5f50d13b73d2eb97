package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	regalloc "repro"
	"repro/internal/ir"
	"repro/internal/irbin"
)

// fuzzAlgorithms are the allocators the fuzz server serves. The oracle
// allocator's exhaustive search is left out: its cost, not the HTTP
// boundary, would dominate every input.
var fuzzAlgorithms = []string{"binpack", "twopass", "linearscan", "coloring"}

// FuzzAllocateHTTP drives POST /allocate with arbitrary bytes against a
// real listener. Each input is sent three ways: as a JSON body, as a
// binary body (with machine and algorithm as query parameters), and as
// the program text of a well-formed JSON envelope. Whatever the bytes,
// the server must not panic and must answer a body that fails to parse
// or validate with a 4xx, never a 500. A body that does parse and
// validate must get 200, and every result must carry the key and the
// printed program that a direct Engine.AllocateCached gives. A valid
// body is sent three times (the miss, the first hit and, for a single
// program, the alias hit), and the three answers must agree in every
// result's key, program and report, the second and third from the
// cache.
func FuzzAllocateHTTP(f *testing.F) {
	s, err := New(Config{Algorithms: fuzzAlgorithms, Workers: 2, Verify: true})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(s)
	f.Cleanup(ts.Close)
	direct := make(map[string]*regalloc.Engine)

	f.Fuzz(func(t *testing.T, body []byte, machine, algorithm string) {
		q := url.Values{"machine": {machine}}
		if algorithm != "" {
			q.Set("algorithm", algorithm)
		}
		wrapped, err := json.Marshal(&AllocateRequest{Machine: machine, Algorithm: algorithm, Program: string(body)})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name, ctype, query string
			body               []byte
			want               fuzzExpect
		}{
			{"json", "application/json", "", body, expectJSON(body)},
			{"binary", ContentTypeBinaryIR, q.Encode(), body, expectBinary(body, machine, algorithm)},
			{"envelope", "application/json", "", wrapped, expectJSON(wrapped)},
		} {
			status, raw := fuzzPost(t, ts, c.ctype, c.query, c.body)
			if !c.want.valid {
				if status != http.StatusBadRequest {
					t.Fatalf("%s: invalid body answered %d, want 400: %s", c.name, status, raw)
				}
				continue
			}
			if status != http.StatusOK {
				t.Fatalf("%s: valid body answered %d, want 200: %s", c.name, status, raw)
			}
			var resp AllocateResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatalf("%s: bad 200 body: %v", c.name, err)
			}
			for again := 1; again <= 2; again++ {
				status, raw := fuzzPost(t, ts, c.ctype, c.query, c.body)
				if status != http.StatusOK {
					t.Fatalf("%s: valid body answered %d when sent again, want 200: %s", c.name, status, raw)
				}
				var hit AllocateResponse
				if err := json.Unmarshal(raw, &hit); err != nil {
					t.Fatalf("%s: bad 200 body when sent again: %v", c.name, err)
				}
				if d := diffAnswers(hit, resp); d != "" {
					t.Fatalf("%s: answer %d differs from the first: %s", c.name, again+1, d)
				}
			}
			if len(resp.Results) != len(c.want.progs) {
				t.Fatalf("%s: %d results for %d programs", c.name, len(resp.Results), len(c.want.progs))
			}
			eng := directEngine(t, direct, c.want.mach, c.want.algorithm)
			for i, prog := range c.want.progs {
				out, _, key, err := eng.AllocateCached(context.Background(), prog)
				if err != nil {
					t.Fatalf("%s: program %d: direct allocation failed on a served program: %v", c.name, i, err)
				}
				var sb strings.Builder
				(&ir.Printer{Mach: eng.Machine()}).WriteProgram(&sb, out)
				if got := resp.Results[i]; got.Key != string(key) || got.Program != sb.String() {
					t.Fatalf("%s: program %d: served key %s, direct %s; programs equal: %t",
						c.name, i, got.Key, key, got.Program == sb.String())
				}
			}
		}
	})
}

// diffAnswers describes how hit, a repeated request's answer, differs
// from first, the same request's first answer: every result must come
// from the cache with first's key, program and report.
func diffAnswers(hit, first AllocateResponse) string {
	if len(hit.Results) != len(first.Results) {
		return fmt.Sprintf("%d results, first had %d", len(hit.Results), len(first.Results))
	}
	for i, h := range hit.Results {
		f := first.Results[i]
		switch {
		case !h.Cached || h.Report == nil || !h.Report.Cached:
			return fmt.Sprintf("program %d not answered from the cache", i)
		case h.Key != f.Key:
			return fmt.Sprintf("program %d: key %s, first %s", i, h.Key, f.Key)
		case h.Program != f.Program:
			return fmt.Sprintf("program %d: program differs", i)
		}
		hr, fr := *h.Report, *f.Report
		hr.Cached, fr.Cached = false, false
		if !reflect.DeepEqual(hr, fr) {
			return fmt.Sprintf("program %d: report %+v, first %+v", i, hr, fr)
		}
	}
	return ""
}

// fuzzPost sends one body to /allocate and returns the status and the
// reply body.
func fuzzPost(t *testing.T, ts *httptest.Server, ctype, query string, body []byte) (int, []byte) {
	t.Helper()
	target := ts.URL + "/allocate"
	if query != "" {
		target += "?" + query
	}
	resp, err := ts.Client().Post(target, ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// fuzzExpect is what the fuzz oracle decides, independently of the
// server, about one request: whether it is valid, and if so its
// programs and the engine that must serve them.
type fuzzExpect struct {
	valid     bool
	mach      *regalloc.Machine
	algorithm string
	progs     []*ir.Program
}

// expectJSON is the oracle for a JSON body: the request must decode,
// name exactly one of program and programs, a machine, a served
// algorithm, and programs that parse and validate. Unknown fields are
// ignored.
func expectJSON(body []byte) fuzzExpect {
	var req AllocateRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return fuzzExpect{}
	}
	texts := req.Programs
	if req.Program != "" {
		if len(texts) > 0 {
			return fuzzExpect{}
		}
		texts = []string{req.Program}
	}
	if len(texts) == 0 {
		return fuzzExpect{}
	}
	want, mach := expectEngine(req.Machine, req.Algorithm)
	if mach == nil {
		return fuzzExpect{}
	}
	for _, text := range texts {
		prog, err := ir.ParseProgramString(text, mach)
		if err != nil || ir.ValidateProgram(prog, mach) != nil {
			return fuzzExpect{}
		}
		want.progs = append(want.progs, prog)
	}
	want.valid = true
	return want
}

// expectBinary is the oracle for a binary body: at least one frame,
// every frame decodes and validates, and the query names a machine and
// a served algorithm.
func expectBinary(body []byte, machine, algorithm string) fuzzExpect {
	if len(body) == 0 {
		return fuzzExpect{}
	}
	want, mach := expectEngine(machine, algorithm)
	if mach == nil {
		return fuzzExpect{}
	}
	for rest := body; len(rest) > 0; {
		prog, n, err := irbin.NewArena().Decode(rest)
		if err != nil || ir.ValidateProgram(prog, mach) != nil {
			return fuzzExpect{}
		}
		rest = rest[n:]
		want.progs = append(want.progs, prog)
	}
	want.valid = true
	return want
}

// expectEngine resolves a request's machine and algorithm as the server
// must: an empty algorithm is binpack, and only fuzzAlgorithms are
// served. A nil machine means the request is invalid.
func expectEngine(machine, algorithm string) (fuzzExpect, *regalloc.Machine) {
	if algorithm == "" {
		algorithm = "binpack"
	}
	served := false
	for _, a := range fuzzAlgorithms {
		served = served || a == algorithm
	}
	mach, err := regalloc.ParseMachine(machine)
	if !served || err != nil {
		return fuzzExpect{}, nil
	}
	return fuzzExpect{mach: mach, algorithm: algorithm}, mach
}

// directEngine returns, building it on first use, the cacheless engine
// for one machine and algorithm, configured as the fuzz server
// configures its own, so its keys and programs are the reference for
// the server's.
func directEngine(t *testing.T, engines map[string]*regalloc.Engine, mach *regalloc.Machine, algorithm string) *regalloc.Engine {
	t.Helper()
	k := algorithm + " " + mach.Spec()
	if e, ok := engines[k]; ok {
		return e
	}
	e, err := regalloc.New(mach, regalloc.WithAlgorithm(algorithm), regalloc.WithParallelism(1), regalloc.WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	engines[k] = e
	return e
}
