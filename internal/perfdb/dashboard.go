package perfdb

import (
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strings"
)

// The dashboard is one self-contained HTML page: inline CSS, inline SVG
// sparklines rendered server-side, zero external assets and zero
// JavaScript, so the CI-artifact copy opens identically offline. Colors
// follow a validated light/dark token pair (single data series → one
// categorical hue; status colors reserved for regression flags, always
// paired with a text label, never color alone); values wear text tokens,
// the colored mark beside them carries identity.

const (
	sparkW   = 220
	sparkH   = 36
	sparkPad = 3.0
)

// headlineMetrics are the stat-tile row, in display order: each
// benchmark workload's throughput, then the engine totals. Only those
// present in the store render.
func headlineMetrics(metrics []MetricInfo) []string {
	var names []string
	for _, mi := range metrics {
		if strings.HasPrefix(mi.Name, "bench.") && strings.HasSuffix(mi.Name, ".programs_per_s") {
			names = append(names, mi.Name)
		}
	}
	return append(names, "alloc.total.wall_ns", "rusage.max_rss_bytes")
}

// RenderDashboard writes the dashboard for the server's store; it is
// shared by GET / and the -render flag of cmd/lsra-perfd.
func (s *Server) RenderDashboard(w io.Writer) {
	recs := s.store.Records()
	metrics := s.store.Metrics()
	regs := s.regressions(regressionParams{window: 4, alpha: 0.05, threshold: 0.10})
	regged := map[string][]Regression{}
	for _, r := range regs {
		regged[r.Metric] = append(regged[r.Metric], r)
	}

	var b strings.Builder
	b.WriteString(dashboardHead)

	// Header.
	span := "no runs yet — POST /ingest or lsra-perfd -backfill"
	if len(recs) > 0 {
		first, last := recs[0], recs[len(recs)-1]
		span = fmt.Sprintf("%d runs · %s → %s", len(recs),
			first.Time.Format("2006-01-02"), last.Time.Format("2006-01-02"))
		if c := shortCommit(last.Commit); c != "" {
			span += " · latest " + c
		}
	}
	fmt.Fprintf(&b, `<header><h1>lsra perf observatory</h1><p class="sub">%s · %d series</p></header>`,
		html.EscapeString(span), len(metrics))

	// Stat tiles.
	var tiles []string
	for _, name := range headlineMetrics(metrics) {
		pts := s.store.Series(name)
		if len(pts) == 0 {
			continue
		}
		tiles = append(tiles, s.statTile(name, pts))
	}
	if len(tiles) > 0 {
		b.WriteString(`<section class="tiles">`)
		for _, t := range tiles {
			b.WriteString(t)
		}
		b.WriteString(`</section>`)
	}

	// Regression flags.
	b.WriteString(`<section><h2>Changepoints</h2>`)
	if len(regs) == 0 {
		b.WriteString(`<p class="sub">No changepoints flagged (Mann-Whitney, window 4, α 0.05, threshold 10%). Short series — fewer than 8 points — cannot reach significance yet.</p>`)
	} else {
		b.WriteString(`<table><thead><tr><th>metric</th><th>at</th><th class="num">before</th><th class="num">after</th><th class="num">Δ</th><th class="num">p</th></tr></thead><tbody>`)
		for _, r := range regs {
			delta := fmt.Sprintf("%+.1f%%", 100*r.Delta)
			if r.FromZero {
				delta = "from zero"
			}
			fmt.Fprintf(&b,
				`<tr><td>%s</td><td>%s %s</td><td class="num">%s</td><td class="num">%s</td><td class="num"><span class="flag">⚠ %s</span></td><td class="num">%.3f</td></tr>`,
				html.EscapeString(r.Metric),
				html.EscapeString(shortCommit(r.Commit)), r.Time.Format("2006-01-02"),
				fmtValue(r.Metric, r.BeforeMedian), fmtValue(r.Metric, r.AfterMedian),
				html.EscapeString(delta), r.P)
		}
		b.WriteString(`</tbody></table>`)
	}
	b.WriteString(`</section>`)

	// Per-group metric tables with sparklines.
	for _, g := range groupMetrics(metrics) {
		fmt.Fprintf(&b, `<section><h2>%s</h2><table><thead><tr><th>metric</th><th>trend</th><th class="num">latest</th><th class="num">Δ first→last</th><th class="num">n</th></tr></thead><tbody>`,
			html.EscapeString(g.title))
		for _, name := range g.metrics {
			pts := s.store.Series(name)
			if len(pts) == 0 {
				continue
			}
			last := pts[len(pts)-1].Value
			flagged := len(regged[name]) > 0
			rowName := html.EscapeString(name)
			if flagged {
				rowName += ` <span class="flag">⚠</span>`
			}
			fmt.Fprintf(&b, `<tr><td>%s</td><td>%s</td><td class="num">%s</td><td class="num">%s</td><td class="num">%d</td></tr>`,
				rowName,
				sparkline(name, pts, regged[name]),
				fmtValue(name, last),
				deltaSpan(name, pts[0].Value, last),
				len(pts))
		}
		b.WriteString(`</tbody></table></section>`)
	}

	b.WriteString(`<footer class="sub">append-only store · GET /series?metric=… · GET /commits · GET /regressions · POST /ingest</footer></main></body></html>`)
	io.WriteString(w, b.String())
}

// statTile renders one headline tile: label, latest value, delta vs the
// previous run (sign carried by glyph and text, color as reinforcement).
func (s *Server) statTile(name string, pts []Point) string {
	last := pts[len(pts)-1].Value
	delta := ""
	if len(pts) > 1 {
		delta = deltaSpan(name, pts[len(pts)-2].Value, last)
	}
	return fmt.Sprintf(`<div class="tile"><div class="label">%s</div><div class="value">%s</div><div class="delta">%s</div>%s</div>`,
		html.EscapeString(name), fmtValue(name, last), delta, sparkline(name, pts, nil))
}

// deltaSpan renders a relative change with direction-aware good/bad
// coloring: lower is better for every cost metric (ns, bytes, allocs,
// spill); higher is better for throughputs (per_s) and eligible quality
// points.
func deltaSpan(metric string, from, to float64) string {
	if from == to {
		return `<span class="sub">±0%</span>`
	}
	var pct string
	if from == 0 {
		pct = "from zero"
	} else {
		pct = fmt.Sprintf("%+.1f%%", 100*(to-from)/math.Abs(from))
	}
	up := to > from
	glyph := "▼"
	if up {
		glyph = "▲"
	}
	higherIsBetter := false
	for _, s := range []string{"per_s", "eligible"} {
		higherIsBetter = higherIsBetter || strings.Contains(metric, s)
	}
	class := "bad"
	if up == higherIsBetter {
		class = "good"
	}
	return fmt.Sprintf(`<span class="%s">%s %s</span>`, class, glyph, html.EscapeString(pct))
}

// sparkline renders one series as an inline SVG: a 2px polyline, a
// filled endpoint dot, ring markers on flagged changepoints, and an
// invisible ≥8px hover target per point whose <title> is the native
// tooltip (commit · date · value).
func sparkline(metric string, pts []Point, regs []Regression) string {
	if len(pts) == 0 {
		return ""
	}
	lo, hi := pts[0].Value, pts[0].Value
	for _, p := range pts {
		lo, hi = math.Min(lo, p.Value), math.Max(hi, p.Value)
	}
	x := func(i int) float64 {
		if len(pts) == 1 {
			return sparkW / 2
		}
		return sparkPad + float64(i)*(sparkW-2*sparkPad)/float64(len(pts)-1)
	}
	y := func(v float64) float64 {
		if hi == lo {
			return sparkH / 2
		}
		return sparkPad + (hi-v)*(sparkH-2*sparkPad)/(hi-lo)
	}
	flagged := map[int]bool{}
	for _, r := range regs {
		for i, p := range pts {
			if p.Time.Equal(r.Time) && p.Commit == r.Commit {
				flagged[i] = true
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d" role="img" aria-label="%s trend">`,
		sparkW, sparkH, sparkW, sparkH, html.EscapeString(metric))
	if len(pts) > 1 {
		var poly strings.Builder
		for i, p := range pts {
			if i > 0 {
				poly.WriteByte(' ')
			}
			fmt.Fprintf(&poly, "%.1f,%.1f", x(i), y(p.Value))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="var(--series-1)" stroke-width="2" stroke-linecap="round" stroke-linejoin="round"/>`, poly.String())
	}
	for i := range pts {
		if flagged[i] {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3.5" fill="none" stroke="var(--critical)" stroke-width="2"/>`, x(i), y(pts[i].Value))
		}
	}
	fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="var(--series-1)"/>`, x(len(pts)-1), y(pts[len(pts)-1].Value))
	// Hover layer: transparent targets bigger than the 2px mark.
	for i, p := range pts {
		label := p.Time.Format("2006-01-02 15:04")
		if c := shortCommit(p.Commit); c != "" {
			label = c + " · " + label
		}
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="8" fill="transparent"><title>%s · %s</title></circle>`,
			x(i), y(p.Value), html.EscapeString(label), fmtValue(metric, p.Value))
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// metricGroup is one dashboard section: the metrics sharing a first
// dot-segment.
type metricGroup struct {
	title   string
	metrics []string
}

// groupOrder pins the narrative: the benchmark's end-to-end numbers,
// then where time goes, then what it costs, then what the code quality
// is.
var groupOrder = []string{"bench", "phase", "alloc", "rusage", "gc", "quality", "sweep"}

func groupMetrics(metrics []MetricInfo) []metricGroup {
	byKey := map[string][]string{}
	for _, mi := range metrics {
		key := mi.Name
		if i := strings.IndexByte(key, '.'); i >= 0 {
			key = key[:i]
		}
		byKey[key] = append(byKey[key], mi.Name)
	}
	var groups []metricGroup
	seen := map[string]bool{}
	add := func(key string) {
		if names := byKey[key]; len(names) > 0 && !seen[key] {
			seen[key] = true
			sort.Strings(names)
			groups = append(groups, metricGroup{title: key, metrics: names})
		}
	}
	for _, key := range groupOrder {
		add(key)
	}
	var rest []string
	for key := range byKey {
		if !seen[key] {
			rest = append(rest, key)
		}
	}
	sort.Strings(rest)
	for _, key := range rest {
		add(key)
	}
	return groups
}

func shortCommit(c string) string {
	if len(c) > 10 {
		return c[:10]
	}
	return c
}

// fmtValue renders a metric value with a unit inferred from its name:
// nanosecond and microsecond series as human durations, byte series as
// binary sizes, rates as percentages, everything else as a plain number.
func fmtValue(metric string, v float64) string {
	switch {
	case strings.HasSuffix(metric, "_ns") || strings.HasSuffix(metric, ".ns"):
		return fmtNs(v)
	case strings.HasSuffix(metric, "_us") || strings.HasSuffix(metric, ".us"):
		return fmtNs(v * 1e3)
	case strings.HasSuffix(metric, "_bytes"):
		return fmtBytes(v)
	case strings.HasSuffix(metric, "_rate") || strings.HasSuffix(metric, "_pct") || strings.Contains(metric, "spill_pct"):
		if strings.Contains(metric, "rate") {
			return fmt.Sprintf("%.1f%%", 100*v)
		}
		return fmt.Sprintf("%.2f%%", v)
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func fmtNs(ns float64) string {
	abs := math.Abs(ns)
	switch {
	case abs >= 1e9:
		return fmt.Sprintf("%.2f s", ns/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("%.2f ms", ns/1e6)
	case abs >= 1e3:
		return fmt.Sprintf("%.1f µs", ns/1e3)
	default:
		return fmt.Sprintf("%.0f ns", ns)
	}
}

func fmtBytes(b float64) string {
	abs := math.Abs(b)
	switch {
	case abs >= 1<<30:
		return fmt.Sprintf("%.2f GiB", b/(1<<30))
	case abs >= 1<<20:
		return fmt.Sprintf("%.1f MiB", b/(1<<20))
	case abs >= 1<<10:
		return fmt.Sprintf("%.1f KiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}

// dashboardHead is the document shell: color tokens for both modes
// (dark selected from the same ramps, not auto-flipped), recessive
// chrome, tabular figures only where columns must align.
const dashboardHead = `<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>lsra perf observatory</title>
<style>
:root {
  color-scheme: light;
  --page:      #f9f9f7;
  --surface:   #fcfcfb;
  --ink:       #0b0b0b;
  --ink-2:     #52514e;
  --muted:     #898781;
  --grid:      #e1e0d9;
  --border:    rgba(11,11,11,0.10);
  --series-1:  #2a78d6;
  --critical:  #d03b3b;
  --good-text: #006300;
  --bad-text:  #a32c2c;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --page:      #0d0d0d;
    --surface:   #1a1a19;
    --ink:       #ffffff;
    --ink-2:     #c3c2b7;
    --muted:     #898781;
    --grid:      #2c2c2a;
    --border:    rgba(255,255,255,0.10);
    --series-1:  #3987e5;
    --critical:  #d03b3b;
    --good-text: #0ca30c;
    --bad-text:  #e66767;
  }
}
* { box-sizing: border-box; }
body { margin: 0; background: var(--page); color: var(--ink);
       font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
main { max-width: 980px; margin: 0 auto; padding: 24px 20px 48px; }
header h1 { font-size: 20px; margin: 0 0 2px; }
.sub { color: var(--ink-2); font-size: 13px; margin: 0; }
section { margin-top: 28px; }
h2 { font-size: 15px; margin: 0 0 10px; color: var(--ink); }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-top: 20px; }
.tile { background: var(--surface); border: 1px solid var(--border); border-radius: 8px;
        padding: 12px 14px 8px; min-width: 200px; flex: 1 1 200px; }
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 24px; margin: 2px 0; }
.tile .delta { font-size: 12px; min-height: 1.2em; }
table { width: 100%; border-collapse: collapse; background: var(--surface);
        border: 1px solid var(--border); border-radius: 8px; overflow: hidden; }
th, td { text-align: left; padding: 6px 10px; border-bottom: 1px solid var(--grid);
         font-size: 13px; vertical-align: middle; }
th { color: var(--muted); font-weight: 500; }
tbody tr:last-child td { border-bottom: none; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.spark { display: block; }
.good { color: var(--good-text); }
.bad { color: var(--bad-text); }
.flag { color: var(--critical); font-weight: 600; }
footer { margin-top: 36px; }
</style></head><body><main>
`
