package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareReport prints, for every workload with paired results in dir
// (<workload>.base.jsonl and <workload>.change.jsonl, one result line
// per run, pair i on line i of both), each end-to-end metric's median
// and quartiles on both sides, the change's wins, and a label.
func compareReport(w io.Writer, dir, specPath string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	fmt.Fprintf(w, "%-15s %-20s %27s %27s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "label")
	for _, wl := range spec.Workloads {
		base, err := readResults(filepath.Join(dir, wl.Name+".base.jsonl"))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err != nil {
			return err
		}
		change, err := readResults(filepath.Join(dir, wl.Name+".change.jsonl"))
		if err != nil {
			return err
		}
		n := min(len(base), len(change))
		for _, m := range spec.EndToEnd {
			bv, cv := values(base[:n], m.Name), values(change[:n], m.Name)
			label, wins := classify(bv, cv, m.Better == "higher", m.Bound)
			b1, b3 := quartiles(bv)
			c1, c3 := quartiles(cv)
			fmt.Fprintf(w, "%-15s %-20s %9.4g [%7.4g, %7.4g] %9.4g [%7.4g, %7.4g] %3d/%-2d  %s\n",
				wl.Name, m.Name, median(bv), b1, b3, median(cv), c1, c3, wins, n, label)
		}
	}
	return nil
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []result
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rs = append(rs, r)
	}
	return rs, sc.Err()
}

func values(rs []result, metric string) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}

// classify labels one metric on one workload from paired runs (pair i is
// base[i] against change[i]):
//
//   - improved: over at least minPairs pairs, the change wins at least
//     nine tenths of them (ties count for neither side) and the medians
//     differ, in the better direction, by more than the parent's
//     interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than bound (a share of the parent's median);
//   - unresolved: fewer than minPairs pairs, or the parent's own spread
//     is wider than bound, so "no worse than the bound" cannot be shown,
//     unless every change run reads better than every parent run;
//   - unchanged: otherwise.
func classify(base, change []float64, higher bool, bound float64) (label string, wins int) {
	better := func(a, b float64) bool { return (higher && a > b) || (!higher && a < b) }
	for i := range base {
		if better(change[i], base[i]) {
			wins++
		}
	}
	bMed, cMed := median(base), median(change)
	q1, q3 := quartiles(base)
	switch worse := (cMed - bMed) / bMed; {
	case len(base) >= minPairs && float64(wins) >= 0.9*float64(len(base)) && better(cMed, bMed) && math.Abs(cMed-bMed) > q3-q1:
		return "improved", wins
	case (higher && -worse > bound) || (!higher && worse > bound):
		return "regressed", wins
	case (len(base) < minPairs || (q3-q1)/bMed > bound) && !allBetter(base, change, better):
		return "unresolved", wins
	}
	return "unchanged", wins
}

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

func allBetter(base, change []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, b := range base {
			if !better(c, b) {
				return false
			}
		}
	}
	return true
}
