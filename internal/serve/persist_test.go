package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"testing"

	regalloc "repro"
	"repro/internal/diskcache"
	"repro/internal/ir"
	"repro/internal/irbin"
)

// TestPersistTierSurvivesRestart allocates against a daemon with a
// disk-backed tier, "restarts" it (a fresh Server over the same
// directory, so the in-memory tier starts cold), and requires the
// repeat request to hit warm from disk.
func TestPersistTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{PersistDir: dir, PersistCostFactor: -1}
	text := workloadText(t, "tiny:6,4", 21)

	_, ts1 := newTestServer(t, cfg)
	var out AllocateResponse
	post(t, ts1.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)
	if out.Results[0].Cached {
		t.Fatal("first allocation reported a cache hit")
	}
	m := getMetrics(t, ts1.URL)
	if m.Persist == nil {
		t.Fatal("no persist section in metrics despite PersistDir")
	}
	if m.Persist.Admission.Admitted != 1 {
		t.Fatalf("admitted = %d, want 1", m.Persist.Admission.Admitted)
	}
	ts1.Close()

	_, ts2 := newTestServer(t, cfg)
	post(t, ts2.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)
	if !out.Results[0].Cached {
		t.Fatal("repeat request after restart was cold; persistent tier did not serve it")
	}
	m = getMetrics(t, ts2.URL)
	if m.Persist.Hits != 1 {
		t.Errorf("persist hits = %d, want 1", m.Persist.Hits)
	}
}

// TestPersistCostAwareAdmission checks that an impossible admission bar
// keeps cheap allocations out of the disk tier while the in-memory tier
// still serves them.
func TestPersistCostAwareAdmission(t *testing.T) {
	cfg := Config{PersistDir: t.TempDir(), PersistCostFactor: 1e12}
	_, ts := newTestServer(t, cfg)
	text := workloadText(t, "tiny:6,4", 22)

	var out AllocateResponse
	post(t, ts.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)
	m := getMetrics(t, ts.URL)
	if m.Persist.Admission.RejectedCost != 1 || m.Persist.Admission.Admitted != 0 {
		t.Errorf("admission = %+v, want 1 cost rejection", m.Persist.Admission)
	}
	// The memory tier still hits.
	post(t, ts.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)
	if !out.Results[0].Cached {
		t.Error("memory tier missed a repeat the disk tier declined")
	}
}

func TestPersistRequiresCaching(t *testing.T) {
	if _, err := New(Config{CacheEntries: -1, PersistDir: t.TempDir()}); err == nil {
		t.Fatal("New accepted PersistDir with caching disabled")
	}
}

// TestCacheExportSeed moves a hot entry between two daemons through the
// peering endpoints and requires the receiver to serve it warm.
func TestCacheExportSeed(t *testing.T) {
	_, src := newTestServer(t, Config{})
	_, dst := newTestServer(t, Config{})
	text := workloadText(t, "tiny:6,4", 23)

	var out AllocateResponse
	post(t, src.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)

	resp, err := http.Get(src.URL + "/cache/export?n=8")
	if err != nil {
		t.Fatal(err)
	}
	var exp CacheExportResponse
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(exp.Entries) != 1 {
		t.Fatalf("exported %d entries, want 1", len(exp.Entries))
	}

	body, _ := json.Marshal(&CacheSeedRequest{Entries: exp.Entries})
	sresp, err := http.Post(dst.URL+"/cache/seed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var seeded CacheSeedResponse
	if err := json.NewDecoder(sresp.Body).Decode(&seeded); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK || seeded.Seeded != 1 || seeded.Rejected != 0 {
		t.Fatalf("seed: status %d, %+v; want 200 with 1 seeded", sresp.StatusCode, seeded)
	}

	post(t, dst.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)
	if !out.Results[0].Cached {
		t.Error("seeded entry did not serve the repeat request warm")
	}
	if m := getMetrics(t, dst.URL); m.Peering.Seeded != 1 {
		t.Errorf("peering.seeded = %d, want 1", m.Peering.Seeded)
	}
	if m := getMetrics(t, src.URL); m.Peering.Exported != 1 {
		t.Errorf("peering.exported = %d, want 1", m.Peering.Exported)
	}
}

// TestCacheSeedRejectsGarbage checks that undecodable entries are
// counted, not installed, and that a cacheless daemon refuses seeding.
func TestCacheSeedRejectsGarbage(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(&CacheSeedRequest{Entries: [][]byte{[]byte(`{"key":""}`)}})
	resp, err := http.Post(ts.URL+"/cache/seed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var seeded CacheSeedResponse
	if err := json.NewDecoder(resp.Body).Decode(&seeded); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if seeded.Rejected != 1 || seeded.Seeded != 0 {
		t.Errorf("seed of garbage = %+v, want 1 rejection", seeded)
	}

	_, nocache := newTestServer(t, Config{CacheEntries: -1})
	resp, err = http.Post(nocache.URL+"/cache/seed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("seed to cacheless daemon: status %d, want 409", resp.StatusCode)
	}
}

// TestCacheSeedRejectsBadFrames sends well-formed wire entries whose
// frames are hostile: one that irbin cannot decode, one that decodes to
// a program ir.ValidateProgram refuses. Both must be counted as
// rejected and neither stored.
func TestCacheSeedRejectsBadFrames(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	rep := &regalloc.Report{Algorithm: "binpack"}

	// A frame header promising three payload bytes that are not a program.
	undecodable := binary.AppendUvarint(append([]byte(irbin.Magic), irbin.Version), 3)
	undecodable = append(undecodable, 0xff, 0xff, 0xff)

	// A structurally sound program whose main procedure does not exist.
	prog, err := ir.ParseProgramString("program mem=0 main=f\nfunc f() {\nentry:\n    ret\n}\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	prog.Main = "missing"
	invalid := irbin.EncodeProgram(prog)

	var req CacheSeedRequest
	for key, frame := range map[regalloc.CacheKey][]byte{"sha256:aa": undecodable, "sha256:bb": invalid} {
		data, err := diskcache.Encode(key, &regalloc.CachedAllocation{Frame: frame, Report: rep})
		if err != nil {
			t.Fatal(err)
		}
		req.Entries = append(req.Entries, data)
	}
	body, _ := json.Marshal(&req)
	resp, err := http.Post(ts.URL+"/cache/seed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var seeded CacheSeedResponse
	if err := json.NewDecoder(resp.Body).Decode(&seeded); err != nil {
		t.Fatal(err)
	}
	if seeded.Rejected != 2 || seeded.Seeded != 0 {
		t.Errorf("seed of hostile frames = %+v, want 2 rejections", seeded)
	}
	if n := s.Cache().Stats().Entries; n != 0 {
		t.Errorf("cache holds %d entries after rejected seeds, want 0", n)
	}
}

// TestUndecodableCacheEntryIsAMiss plants an entry whose frame cannot
// be decoded under a live request's key: the next request must be
// re-allocated and answered as a miss with the same program, never a
// 500, and the bad entry replaced.
func TestUndecodableCacheEntryIsAMiss(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := AllocateRequest{Machine: "tiny:6,4", Program: workloadText(t, "tiny:6,4", 24)}
	var first, again AllocateResponse
	post(t, ts.URL, req, http.StatusOK, &first)
	key := regalloc.CacheKey(first.Results[0].Key)
	s.Cache().Put(key, &regalloc.CachedAllocation{Frame: []byte(irbin.Magic + "junk"), Report: first.Results[0].Report})

	post(t, ts.URL, req, http.StatusOK, &again)
	if again.Results[0].Cached {
		t.Error("undecodable entry reported as a cache hit")
	}
	if again.Results[0].Program != first.Results[0].Program {
		t.Error("re-allocation after a bad entry printed a different program")
	}
	post(t, ts.URL, req, http.StatusOK, &again)
	if !again.Results[0].Cached || again.Results[0].Program != first.Results[0].Program {
		t.Error("bad entry was not replaced by the re-allocation")
	}
}
