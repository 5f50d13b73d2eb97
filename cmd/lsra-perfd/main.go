// Command lsra-perfd is the continuous perf observatory daemon: it owns
// an append-only JSONL store of benchmark runs (internal/perfdb),
// ingests stamped `lsra-bench -json` documents over HTTP or from files,
// and serves the time-series API plus a self-contained HTML dashboard.
// A document may carry a `benchmark` section (CI merges the result
// lines of benchmark/run.sh into it); its bench.<workload>.<metric>
// series are the dashboard's headline.
//
//	lsra-perfd                                   serve ./perfdb.jsonl on :8317
//	lsra-perfd -backfill BENCH_*.json            seed the store from committed
//	                                             snapshots, then serve
//	lsra-perfd -once -backfill a.json b.json \
//	           -render dash.html                 CI mode: ingest, render, exit
//
// Endpoints: POST /ingest, GET /series[?metric=NAME], GET /commits,
// GET /regressions[?window=&alpha=&threshold=], GET /healthz, and GET /
// (the dashboard).
//
// Backfilled files that predate the observatory (schema v0: no `meta`
// stamp) get their identity from git — the commit that last touched the
// file and its commit date — falling back to file mtime on trees without
// git, so the committed BENCH_2.json/BENCH_5.json seeds land on the time
// axis where they historically belong and the dashboard is never empty
// on a fresh clone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/perfdb"
)

func main() {
	var (
		addr     = flag.String("addr", ":8317", "listen `address`")
		storeP   = flag.String("store", "perfdb.jsonl", "append-only store `file` (JSONL, created if missing)")
		backfill = flag.Bool("backfill", false, "ingest the positional bench-JSON files before serving")
		once     = flag.Bool("once", false, "exit after -backfill/-render instead of serving")
		render   = flag.String("render", "", "render the dashboard HTML to `file` and continue")
	)
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "lsra-perfd:", err)
		os.Exit(1)
	}

	store, repaired, err := perfdb.Open(*storeP)
	if err != nil {
		die(err)
	}
	if repaired > 0 {
		fmt.Fprintf(os.Stderr, "lsra-perfd: %s: repaired torn tail record\n", *storeP)
	}
	fmt.Fprintf(os.Stderr, "lsra-perfd: store %s: %d records\n", *storeP, store.Len())

	if *backfill {
		if flag.NArg() == 0 {
			die(fmt.Errorf("-backfill needs bench JSON files as arguments"))
		}
		for _, path := range flag.Args() {
			if err := backfillFile(store, path); err != nil {
				die(err)
			}
		}
	} else if flag.NArg() > 0 {
		die(fmt.Errorf("positional arguments need -backfill"))
	}

	srv := perfdb.NewServer(store)
	if *render != "" {
		f, err := os.Create(*render)
		if err != nil {
			die(err)
		}
		srv.RenderDashboard(f)
		if err := f.Close(); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "lsra-perfd: dashboard rendered to %s\n", *render)
	}
	if *once {
		return
	}

	fmt.Fprintf(os.Stderr, "lsra-perfd: listening on %s\n", *addr)
	if err := http.ListenAndServe(*addr, srv); err != nil {
		die(err)
	}
}

// backfillFile ingests one bench JSON file, synthesizing v0 identity
// from git (or mtime) when the document carries no meta stamp. The
// fallback (and its mtime warning) is computed only for unstamped
// documents — a stamped file carries its own provenance.
func backfillFile(store *perfdb.Store, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var probe struct {
		Meta *perfdb.Meta `json:"meta"`
	}
	fallback := perfdb.Meta{}
	if json.Unmarshal(data, &probe) != nil || probe.Meta == nil {
		fallback = fallbackMeta(path)
	}
	rec, err := perfdb.Extract(data, fallback)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	rec.Source = filepath.Base(path)
	added, err := store.Append(rec)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	verdict := "already present"
	if added {
		verdict = fmt.Sprintf("%d series", len(rec.Series))
	}
	fmt.Fprintf(os.Stderr, "lsra-perfd: backfill %s (schema v%d, %s, %s): %s\n",
		path, rec.SchemaVersion, orNone(rec.Commit), rec.Time.Format(time.RFC3339), verdict)
	return nil
}

// fallbackMeta builds the v0 identity for an unstamped file: the commit
// that last touched it and that commit's UTC date, from git; file mtime
// only as a last resort (exported tarballs, untracked files), and
// loudly — an mtime is whenever the file was last copied, not when the
// benchmark ran, so records stamped with it can land anywhere on the
// timeline. Note that `git log -- <untracked>` exits 0 with empty
// output, so the empty-output case must fall through here too rather
// than being mistaken for provenance.
func fallbackMeta(path string) perfdb.Meta {
	meta := perfdb.Meta{}
	out, err := exec.Command("git", "-C", filepath.Dir(absOrSelf(path)),
		"log", "-1", "--format=%H %cI", "--", filepath.Base(path)).Output()
	if err == nil {
		if fields := strings.Fields(strings.TrimSpace(string(out))); len(fields) == 2 {
			if t, terr := time.Parse(time.RFC3339, fields[1]); terr == nil {
				meta.Commit = fields[0]
				meta.Time = t.UTC()
				return meta
			}
		}
	}
	if st, serr := os.Stat(path); serr == nil {
		meta.Time = st.ModTime().UTC()
		fmt.Fprintf(os.Stderr,
			"lsra-perfd: WARNING: %s is not git-tracked (or git is unavailable); falling back to file mtime %s — the record's timeline position is unreliable, commit the file or stamp it (schema v1) for real provenance\n",
			path, meta.Time.Format(time.RFC3339))
	} else {
		meta.Time = time.Now().UTC()
		fmt.Fprintf(os.Stderr,
			"lsra-perfd: WARNING: %s has neither git history nor a readable mtime (%v); stamping with the current time\n",
			path, serr)
	}
	return meta
}

func absOrSelf(path string) string {
	if abs, err := filepath.Abs(path); err == nil {
		return abs
	}
	return path
}

func orNone(commit string) string {
	if commit == "" {
		return "no commit"
	}
	if len(commit) > 10 {
		return commit[:10]
	}
	return commit
}
