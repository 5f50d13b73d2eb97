package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func series(f func(i int) float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = f(i)
	}
	return xs
}

func TestClassify(t *testing.T) {
	tight := series(func(i int) float64 { return 100 + float64(i%3) })
	noisy := series(func(i int) float64 { return 100 + 20*float64(i%3) })
	for _, c := range []struct {
		name         string
		base, change []float64
		higher       bool
		want         string
	}{
		{"faster on every pair", tight, series(func(i int) float64 { return 90 + float64(i%3) }), false, "improved"},
		{"higher throughput", tight, series(func(i int) float64 { return 110 + float64(i%3) }), true, "improved"},
		{"same code", tight, tight, false, "unchanged"},
		{"worse than the bound", tight, series(func(i int) float64 { return 120 + float64(i%3) }), false, "regressed"},
		{"spread wider than the bound", noisy, noisy, false, "unresolved"},
		{"wins too few pairs", tight, series(func(i int) float64 { return 99 + 3*float64(i%2) }), false, "unchanged"},
		{"fewer than ten pairs", tight[:5], series(func(i int) float64 { return 95 + 10*float64(i%2) })[:5], false, "unresolved"},
	} {
		if got, _ := classify(c.base, c.change, c.higher, 0.1); got != c.want {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReport(t *testing.T) {
	dir := t.TempDir()
	spec := `{"workloads":[{"name":"w","why":"x"}],"end_to_end":[{"name":"latency_p50_us","unit":"us","better":"lower","bound":0.1}]}`
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(side string, v func(i int) float64) {
		var b bytes.Buffer
		for i := 0; i < 10; i++ {
			line, _ := json.Marshal(result{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"latency_p50_us": {Value: v(i), Unit: "us"}}})
			b.Write(append(line, '\n'))
		}
		if err := os.WriteFile(filepath.Join(dir, "w."+side+".jsonl"), b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("base", func(i int) float64 { return 100 + float64(i%3) })
	write("change", func(i int) float64 { return 80 + float64(i%3) })
	var out bytes.Buffer
	if err := compareReport(&out, dir, specPath); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "improved") || !strings.Contains(out.String(), "10/10") {
		t.Fatalf("report does not show a 10/10 improvement:\n%s", out.String())
	}
}
