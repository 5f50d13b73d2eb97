// Command lsra-client scripts against an lsra-served daemon: it posts
// textual IR programs for allocation and fetches service metrics.
//
//	lsra-client -addr http://localhost:7421 -machine alpha prog.ir
//	cat prog.ir | lsra-client -machine tiny:6,4 -algo linearscan
//	lsra-client -metrics
//
// By default the allocated program is printed to stdout and a one-line
// summary (daemon, cache status, candidates, spills, wall time) to
// stderr; -json dumps the daemon's full AllocateResponse instead.
// Multiple input files are sent as one batch request. A non-200 reply,
// 429 under overload included, is reported with its status and error
// and exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/serve"
)

// shortKey abbreviates a content address for the summary line: the
// hash-scheme prefix plus the first 12 digest characters, tolerating
// keys of any length.
func shortKey(key string) string {
	scheme, digest, ok := strings.Cut(key, ":")
	if !ok || len(digest) <= 12 {
		return key
	}
	return scheme + ":" + digest[:12] + "…"
}

func main() {
	var (
		addr    = flag.String("addr", "http://localhost:7421", "daemon base URL")
		machine = flag.String("machine", "alpha", "machine spec (preset or tiny:<ints>,<floats>)")
		algo    = flag.String("algo", "binpack", "allocator registry name")
		jsonOut = flag.Bool("json", false, "print the full JSON response")
		metrics = flag.Bool("metrics", false, "fetch /metrics instead of allocating")
		timeout = flag.Duration("timeout", 60*time.Second, "request timeout")
	)
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "lsra-client:", err)
		os.Exit(1)
	}
	base := strings.TrimSuffix(strings.TrimSpace(*addr), "/")
	httpc := &http.Client{Timeout: *timeout}

	if *metrics {
		resp, err := httpc.Get(base + "/metrics")
		if err != nil {
			die(err)
		}
		_, err = io.Copy(os.Stdout, resp.Body)
		resp.Body.Close()
		if err != nil {
			die(err)
		}
		fmt.Println()
		return
	}

	req := serve.AllocateRequest{Machine: *machine, Algorithm: *algo}
	if flag.NArg() == 0 {
		text, err := io.ReadAll(os.Stdin)
		if err != nil {
			die(err)
		}
		req.Program = string(text)
	} else {
		for _, path := range flag.Args() {
			text, err := os.ReadFile(path)
			if err != nil {
				die(err)
			}
			req.Programs = append(req.Programs, string(text))
		}
		// One file goes as a single program, which the daemon can answer
		// from its alias entry on a repeat; a batch always takes a worker.
		if len(req.Programs) == 1 {
			req.Program, req.Programs = req.Programs[0], nil
		}
	}
	body, err := json.Marshal(&req)
	if err != nil {
		die(err)
	}
	resp, err := httpc.Post(base+"/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		die(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		die(err)
	}
	if resp.StatusCode != http.StatusOK {
		var e serve.ErrorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			die(fmt.Errorf("status %d: %s", resp.StatusCode, e.Error))
		}
		die(fmt.Errorf("status %d", resp.StatusCode))
	}
	var out serve.AllocateResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		die(fmt.Errorf("bad response body: %w", err))
	}
	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(&out); err != nil {
			die(err)
		}
		return
	}
	for i, res := range out.Results {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(res.Program)
		status := "allocated"
		if res.Cached {
			status = "cache hit"
		}
		rep := res.Report
		fmt.Fprintf(os.Stderr, "lsra-client: %s via %s (%s on %s): %s, %d procs, %d candidates, %d spilled, wall %v\n",
			status, base, out.Algorithm, out.Machine, shortKey(res.Key),
			len(rep.Procs), rep.Totals.Candidates, rep.Totals.SpilledTemps, rep.WallTime)
	}
}
