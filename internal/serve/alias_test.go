package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	regalloc "repro"
	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/target"
)

// aliasForm is one program as a JSON text body or as a binary frame;
// the tests below run each of their steps in both forms.
type aliasForm struct {
	name, ctype, query string
	body               []byte
}

// do posts the form's body to the server at url and returns the status
// and the reply; it may run on any goroutine.
func (f aliasForm) do(url string) (int, []byte, error) {
	resp, err := http.Post(url+"/allocate"+f.query, f.ctype, bytes.NewReader(f.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// send posts the form's body and decodes the reply into out (when not
// nil) after checking its status.
func (f aliasForm) send(t *testing.T, url string, wantCode int, out any) {
	t.Helper()
	code, raw, err := f.do(url)
	if err != nil {
		t.Fatal(err)
	}
	if code != wantCode {
		t.Fatalf("%s: status %d, want %d: %s", f.name, code, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatal(err)
		}
	}
}

// aliasForms returns the two forms of the seeded program on machine.
func aliasForms(t *testing.T, machine string, seed int64) []aliasForm {
	t.Helper()
	text := workloadText(t, machine, seed)
	mach, err := target.Parse(machine)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.ParseProgramString(text, mach)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&AllocateRequest{Machine: machine, Program: text})
	if err != nil {
		t.Fatal(err)
	}
	return []aliasForm{
		{"text", "application/json", "", body},
		{"binary", ContentTypeBinaryIR, "?machine=" + machine, irbin.EncodeProgram(prog)},
	}
}

// sameAnswer fails unless got is want's one result with cached set:
// the same key, program and report.
func sameAnswer(t *testing.T, what string, got, want AllocateResponse) {
	t.Helper()
	if len(got.Results) != 1 || len(want.Results) != 1 {
		t.Fatalf("%s: %d and %d results, want 1 each", what, len(got.Results), len(want.Results))
	}
	g, w := got.Results[0], want.Results[0]
	if !g.Cached || !g.Report.Cached {
		t.Errorf("%s: answer not marked cached (result %v, report %v)", what, g.Cached, g.Report.Cached)
	}
	if g.Key != w.Key {
		t.Errorf("%s: key %s, want the canonical %s", what, g.Key, w.Key)
	}
	if g.Program != w.Program {
		t.Errorf("%s: program differs", what)
	}
	gr, wr := *g.Report, *w.Report
	gr.Cached, wr.Cached = false, false
	if !reflect.DeepEqual(gr, wr) {
		t.Errorf("%s: report differs:\n%+v\nwant\n%+v", what, gr, wr)
	}
}

// TestAliasHitAnswersAsFirstHit sends a program three times in each
// form: the miss, the first hit (which stores the alias) and the alias
// hit must give one answer, and the alias hit must leave the cache
// untouched but for its hit.
func TestAliasHitAnswersAsFirstHit(t *testing.T) {
	for _, f := range aliasForms(t, "x86-8", 11) {
		t.Run(f.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			var miss, first, alias AllocateResponse
			f.send(t, ts.URL, http.StatusOK, &miss)
			if miss.Results[0].Cached {
				t.Fatal("first request answered from the cache")
			}
			f.send(t, ts.URL, http.StatusOK, &first)
			sameAnswer(t, "first hit", first, miss)
			if n := s.Cache().Stats().Entries; n != 2 {
				t.Fatalf("%d cache entries after the first hit, want 2 (the program and its alias)", n)
			}
			before := getMetrics(t, ts.URL)
			f.send(t, ts.URL, http.StatusOK, &alias)
			sameAnswer(t, "alias hit", alias, miss)
			after := getMetrics(t, ts.URL)
			if after.Cache.Entries != 2 || after.Cache.Hits != before.Cache.Hits+1 || after.Cache.Misses != before.Cache.Misses {
				t.Errorf("alias hit moved the cache from %+v to %+v, want one hit more", before.Cache.CacheStats, after.Cache.CacheStats)
			}
			if phaseNs(after) != phaseNs(before) {
				t.Error("alias hit recorded allocator phase work")
			}
		})
	}
}

// TestAliasHitSkipsWorker holds the lone worker: a request whose alias
// exists must still be answered, while a new program waits in the
// queue until the worker is free.
func TestAliasHitSkipsWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	forms := aliasForms(t, "tiny:6,4", 7)
	for _, f := range forms {
		for i := 0; i < 2; i++ { // the miss or first hit, then the first hit
			f.send(t, ts.URL, http.StatusOK, nil)
		}
	}
	release := holdWorker(t, s)
	for _, f := range forms {
		done := make(chan int, 1)
		go func() {
			code, _, _ := f.do(ts.URL)
			done <- code
		}()
		select {
		case code := <-done:
			if code != http.StatusOK {
				t.Errorf("%s: alias hit answered %d while the worker was held, want 200", f.name, code)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: alias hit still waiting for the held worker", f.name)
		}
	}
	codes := postAsync(context.Background(), ts.URL, AllocateRequest{Machine: "tiny:6,4", Program: workloadText(t, "tiny:6,4", 8)})
	waitMetrics(t, ts.URL, "the miss queued", func(m Metrics) bool { return m.Queue.Depth == 1 })
	select {
	case code := <-codes:
		t.Fatalf("miss finished with %d while the worker was held", code)
	default:
	}
	release()
	if code := <-codes; code != http.StatusOK {
		t.Fatalf("queued miss finished with %d, want 200", code)
	}
}

// TestAliasEvictedFallsBack evicts every entry, alias and program
// alike, by filling the cache: the request must take the full path
// again, as a miss with the same answer, then as a first hit that
// stores the alias anew (evicting one filler).
func TestAliasEvictedFallsBack(t *testing.T) {
	const capacity = 32
	for _, f := range aliasForms(t, "x86-8", 12) {
		t.Run(f.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{CacheEntries: capacity})
			var alias, miss, first AllocateResponse
			for i := 0; i < 3; i++ { // miss, first hit, alias hit
				f.send(t, ts.URL, http.StatusOK, &alias)
			}
			for i := 0; i < 4*capacity; i++ {
				s.Cache().Put(regalloc.CacheKey(fmt.Sprintf("filler-%d", i)), &regalloc.CachedAllocation{})
			}
			f.send(t, ts.URL, http.StatusOK, &miss)
			if miss.Results[0].Cached {
				t.Fatal("answered from the cache after every entry was evicted")
			}
			if miss.Results[0].Key != alias.Results[0].Key || miss.Results[0].Program != alias.Results[0].Program {
				t.Fatal("re-allocation after eviction gave a different answer")
			}
			evicted := s.Cache().Stats().Evictions
			f.send(t, ts.URL, http.StatusOK, &first)
			sameAnswer(t, "first hit after eviction", first, miss)
			if got := s.Cache().Stats().Evictions; got != evicted+1 {
				t.Errorf("first hit after eviction evicted %d entries, want 1 (to store the alias anew)", got-evicted)
			}
			f.send(t, ts.URL, http.StatusOK, &alias)
			sameAnswer(t, "alias hit after eviction", alias, miss)
			if got := s.Cache().Stats().Evictions; got != evicted+1 {
				t.Error("the alias hit after eviction stored an entry")
			}
		})
	}
}

// TestDrainingRefusesAliasHit: a request whose alias exists is still
// refused once the server drains, like any other.
func TestDrainingRefusesAliasHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	forms := aliasForms(t, "alpha", 9)
	for _, f := range forms {
		for i := 0; i < 2; i++ {
			f.send(t, ts.URL, http.StatusOK, nil)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, f := range forms {
		f.send(t, ts.URL, http.StatusServiceUnavailable, nil)
	}
	if m := getMetrics(t, ts.URL); m.Requests.Draining != 2 {
		t.Errorf("draining = %d, want 2", m.Requests.Draining)
	}
}

// TestCacheCountsOneOutcomePerProgram: an alias probe that misses is
// not counted, so /metrics shows one hit or miss per program whichever
// path answered it: here one miss, then a first hit and an alias hit in
// each form, and a two-program batch that takes no alias.
func TestCacheCountsOneOutcomePerProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	forms := aliasForms(t, "risc-16", 4)
	forms[0].send(t, ts.URL, http.StatusOK, nil) // the miss
	for _, f := range forms {
		for i := 0; i < 2; i++ {
			f.send(t, ts.URL, http.StatusOK, nil)
		}
	}
	text := workloadText(t, "risc-16", 4)
	post(t, ts.URL, AllocateRequest{Machine: "risc-16", Programs: []string{text, text}}, http.StatusOK, nil)
	m := getMetrics(t, ts.URL)
	if m.Cache.Misses != 1 || m.Cache.Hits != 6 {
		t.Errorf("cache counted %d hits and %d misses, want 6 and 1", m.Cache.Hits, m.Cache.Misses)
	}
	if m.Programs != 7 || m.CachedPrograms != 6 {
		t.Errorf("programs = %d, cached = %d, want 7 and 6", m.Programs, m.CachedPrograms)
	}
}
