// Package perfdb is the continuous performance observatory: an
// append-only, file-backed time-series store for benchmark runs, the
// series extraction that turns one stamped `lsra-bench -json` document
// into named metric series, resource attribution (rusage + GC) for the
// bench driver, and the HTTP daemon (cmd/lsra-perfd) that ingests runs and
// renders the trajectory as a self-contained HTML dashboard.
//
// The document's optional `benchmark` section carries the repository
// benchmark's result lines (benchmark/run.sh, one per BENCHMARK.json
// workload), filed as bench.<workload>.<metric> series: the numbers perf
// claims are made against lead the dashboard. The repo's committed
// BENCH_*.json snapshots are point-in-time; perfdb gives them a time
// axis. One Record per bench invocation, keyed by commit SHA + UTC
// timestamp + host fingerprint, with every number the run produced
// flattened into named series (bench.serve-hotcold.programs_per_s,
// phase.scan.ns, alloc.fpppp.wall_ns, rusage.max_rss_bytes, ...), so a
// slow regression spread across several PRs shows up as a trend, and
// changepoint flagging (internal/perfdb/stats, the same Mann-Whitney
// machinery as cmd/benchguard) marks where a regime shifted. perfdb
// reads only the sections a current run writes.
package perfdb

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// SchemaVersion is the current bench-record schema. Version 0 is the
// pre-observatory BENCH_*.json shape (no meta stamp); Open/Extract keep
// reading it via the fallback path so the committed history stays
// ingestible.
const SchemaVersion = 1

// Meta identifies one benchmark run: which commit, when, on what.
type Meta struct {
	SchemaVersion int `json:"schema_version"`
	// Commit is the git SHA the run measured (best-effort: empty when
	// the tree had no git available).
	Commit string `json:"commit,omitempty"`
	// Time is the run's UTC timestamp.
	Time time.Time `json:"time_utc"`
	// GoVersion is runtime.Version() of the bench binary.
	GoVersion string `json:"go_version,omitempty"`
	// Host is a coarse machine fingerprint (goos/goarch/hostname/ncpu):
	// enough to separate laptop runs from CI runners when reading a
	// trend, deliberately not enough to deanonymize anything.
	Host string `json:"host,omitempty"`
}

// Stamp returns the Meta for a run happening now on this process.
func Stamp(commit string) *Meta {
	host, _ := os.Hostname()
	return &Meta{
		SchemaVersion: SchemaVersion,
		Commit:        commit,
		Time:          time.Now().UTC().Truncate(time.Second),
		GoVersion:     runtime.Version(),
		Host:          fmt.Sprintf("%s/%s/%s/%dcpu", runtime.GOOS, runtime.GOARCH, host, runtime.NumCPU()),
	}
}

// Record is one stored observation: a run's identity plus every metric
// it produced as a flat map of named series.
type Record struct {
	Meta
	// Source names where the record came from: the ingested file's base
	// name for backfills, "ingest" for live POSTs.
	Source string `json:"source,omitempty"`
	// Series maps metric name to value. Names are dot-paths grouping
	// related metrics (bench.corpus-batch.programs_per_s, phase.scan.ns,
	// alloc.fpppp.wall_ns, quality.eqntott.instr_ratio); the quality
	// frontier keeps its historical flat names (quality_gap_binpack).
	Series map[string]float64 `json:"series"`
}

// Key is the record's dedup identity: ingesting the same run twice
// (every CI run re-backfills the committed BENCH_*.json seeds) must not
// duplicate points.
func (r *Record) Key() string {
	return fmt.Sprintf("%s|%d|%s|%s", r.Commit, r.Time.UnixNano(), r.Host, r.Source)
}

// Point is one (time, value) observation of one metric, carrying enough
// identity to act on: the commit that produced it and the record source.
type Point struct {
	Time   time.Time `json:"time_utc"`
	Commit string    `json:"commit,omitempty"`
	Source string    `json:"source,omitempty"`
	Value  float64   `json:"value"`
}
