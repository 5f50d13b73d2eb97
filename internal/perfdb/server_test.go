package perfdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// newTestServer returns an httptest server over a fresh store.
func newTestServer(t *testing.T) (*httptest.Server, *Store) {
	t.Helper()
	store, _, err := Open(filepath.Join(t.TempDir(), "perfdb.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store))
	t.Cleanup(ts.Close)
	return ts, store
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp
}

// TestServerIngestQueryDashboard is the end-to-end smoke test: POST two
// stamped bench documents, query the series back, list the commits, and
// check the dashboard renders the trajectory.
func TestServerIngestQueryDashboard(t *testing.T) {
	ts, store := newTestServer(t)
	base := time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC)
	for i, rate := range []float64{826.9, 866.2} {
		doc := stampedDoc(t, fmt.Sprintf("commit%d", i), base.Add(time.Duration(i)*time.Hour), rate, 49000+float64(i))
		resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Added       bool   `json:"added"`
			Commit      string `json:"commit"`
			SeriesCount int    `json:"series_count"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || !got.Added || got.SeriesCount == 0 {
			t.Fatalf("ingest %d: status=%d body=%+v", i, resp.StatusCode, got)
		}
	}
	if store.Len() != 2 {
		t.Fatalf("store len = %d, want 2", store.Len())
	}

	// Series query returns both points, time-ordered.
	var series struct {
		Metric string  `json:"metric"`
		Points []Point `json:"points"`
	}
	if resp := getJSON(t, ts.URL+"/series?metric=bench.serve-hotcold.programs_per_s", &series); resp.StatusCode != 200 {
		t.Fatalf("series status %d", resp.StatusCode)
	}
	if len(series.Points) != 2 || series.Points[0].Value != 826.9 || series.Points[1].Value != 866.2 {
		t.Fatalf("bench.serve-hotcold.programs_per_s points = %+v", series.Points)
	}

	// Unknown metric is a 404; bare /series lists metric names.
	if resp := getJSON(t, ts.URL+"/series?metric=nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown metric status %d, want 404", resp.StatusCode)
	}
	var list struct {
		Metrics []MetricInfo `json:"metrics"`
	}
	getJSON(t, ts.URL+"/series", &list)
	if len(list.Metrics) == 0 {
		t.Fatal("metric listing empty")
	}

	// Commits are in time order with both runs.
	var commits struct {
		Commits []CommitInfo `json:"commits"`
	}
	getJSON(t, ts.URL+"/commits", &commits)
	if len(commits.Commits) != 2 || commits.Commits[0].Commit != "commit0" {
		t.Fatalf("commits = %+v", commits.Commits)
	}

	// Regressions endpoint answers (too few points to flag anything).
	var regs struct {
		Regressions []Regression `json:"regressions"`
	}
	if resp := getJSON(t, ts.URL+"/regressions", &regs); resp.StatusCode != 200 {
		t.Fatalf("regressions status %d", resp.StatusCode)
	}
	if len(regs.Regressions) != 0 {
		t.Fatalf("2-point store flagged regressions: %+v", regs.Regressions)
	}

	// Dashboard renders the series with sparklines and the run span.
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	page := buf.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("dashboard content-type = %q", ct)
	}
	for _, want := range []string{
		"lsra perf observatory", "2 runs",
		`<div class="label">bench.serve-hotcold.programs_per_s</div><div class="value">866</div><div class="delta"><span class="good">▲ +4.8%</span>`,
		"<h2>bench</h2>", "bench.serve-hotcold.latency_p50_us", "2.29 ms",
		"quality_gap_binpack", "phase.scan.ns",
		"rusage.max_rss_bytes", `<svg class="spark"`, "<polyline", "<title>",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if i, j := strings.Index(page, "<h2>bench</h2>"), strings.Index(page, "<h2>phase</h2>"); i < 0 || i > j {
		t.Error("the benchmark's group does not open the per-group tables")
	}
	if strings.Contains(page, "<script") {
		t.Error("dashboard must be self-contained: no scripts")
	}
	if strings.Contains(page, "http://") || strings.Contains(page, "https://") {
		t.Error("dashboard must not reference external assets")
	}
}

// TestServerFlagsRegression feeds two long series with a clean step —
// an engine phase cost and a benchmark workload's throughput — and
// expects /regressions (and the dashboard) to flag both.
func TestServerFlagsRegression(t *testing.T) {
	ts, store := newTestServer(t)
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	values := []float64{100, 101, 99, 100, 102, 98, 150, 151, 149, 150, 152, 148}
	for i, v := range values {
		rec := testRecord(fmt.Sprintf("c%02d", i), base.Add(time.Duration(i)*time.Hour),
			map[string]float64{"phase.scan.ns": v * 1000, "bench.serve-hotcold.programs_per_s": 1e5 / v})
		if _, err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	var regs struct {
		Regressions []Regression `json:"regressions"`
	}
	getJSON(t, ts.URL+"/regressions", &regs)
	if len(regs.Regressions) != 2 {
		t.Fatalf("regressions = %+v, want two", regs.Regressions)
	}
	if r := regs.Regressions[0]; r.Metric != "bench.serve-hotcold.programs_per_s" || r.Commit != "c06" || r.Delta > -0.3 {
		t.Errorf("flagged regression = %+v", r)
	}
	if r := regs.Regressions[1]; r.Metric != "phase.scan.ns" || r.Commit != "c06" || r.Delta < 0.4 {
		t.Errorf("flagged regression = %+v", r)
	}
	// The dashboard marks the flagged series.
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "⚠") {
		t.Error("dashboard does not mark the flagged changepoint")
	}
	// Parameter validation.
	if resp := getJSON(t, ts.URL+"/regressions?window=x", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad window status %d, want 400", resp.StatusCode)
	}
}

// TestServerIngestUnstamped pins the v0 ingest path: a document without
// a meta stamp is accepted with arrival-time identity.
func TestServerIngestUnstamped(t *testing.T) {
	ts, store := newTestServer(t)
	doc := `{"table1":[{"Benchmark":"wc","InstrRatio":1.01}]}`
	resp, err := http.Post(ts.URL+"/ingest?source=adhoc", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || store.Len() != 1 {
		t.Fatalf("unstamped ingest: status=%d len=%d", resp.StatusCode, store.Len())
	}
	rec := store.Records()[0]
	if rec.SchemaVersion != 0 || rec.Source != "adhoc" || rec.Time.IsZero() {
		t.Fatalf("unstamped record = %+v", rec.Meta)
	}
	// A document with nothing extractable is a 400, not a silent empty record.
	resp, err = http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty doc status = %d, want 400", resp.StatusCode)
	}
}
