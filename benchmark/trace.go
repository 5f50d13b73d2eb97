package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// epoch anchors every timestamp the benchmark takes: now() is monotonic
// nanoseconds since process start, so spans from different goroutines
// share one time base.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Parent is the id of the enclosing span of the
// same op, or 0 for the op's root.
type span struct {
	Op     int64  `json:"op_id"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one goroutine's spans in a slice allocated up front, so
// recording a span never allocates. A nil tracer records nothing: the
// untraced run passes nil and pays one nil check per span.
type tracer struct {
	spans   []span
	dropped int // ops not traced because the slice was full
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, 0, capacity)} }

// reserve reports whether n more spans fit; an op that does not fit is
// left out whole (and counted), so no op is ever traced partially.
func (t *tracer) reserve(n int) bool {
	if t == nil {
		return false
	}
	if len(t.spans)+n > cap(t.spans) {
		t.dropped++
		return false
	}
	return true
}

// add records a finished span and returns its id (its index + 1).
func (t *tracer) add(op int64, parent int32, name string, start, end int64) int32 {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Op: op, ID: int32(len(t.spans) + 1), Parent: parent, Name: name, Start: start, End: end})
	return int32(len(t.spans))
}

// mergeSpans concatenates the tracers' spans, renumbering ids so they
// stay unique across goroutines.
func mergeSpans(ts []*tracer) (all []span, dropped int) {
	for _, t := range ts {
		if t == nil {
			continue
		}
		off := int32(len(all))
		for _, s := range t.spans {
			s.ID += off
			if s.Parent != 0 {
				s.Parent += off
			}
			all = append(all, s)
		}
		dropped += t.dropped
	}
	return all, dropped
}

// layerTimes is the self-time ledger of a trace: for each span name, the
// self time of every span with that name. A span's self time is its
// duration minus the part of its interval that its children cover.
type layerTimes struct {
	self   map[string][]float64 // ns
	rootNs float64              // summed duration of root spans
	selfNs float64              // summed self time of all spans
}

func selfTimes(spans []span) layerTimes {
	lt := layerTimes{self: map[string][]float64{}}
	children := map[int32][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for _, s := range spans {
		var kids []span
		for _, k := range children[s.ID] {
			kids = append(kids, spans[k])
		}
		self := float64(s.End-s.Start) - float64(covered(s.Start, s.End, kids))
		lt.self[s.Name] = append(lt.self[s.Name], self)
		lt.selfNs += self
		if s.Parent == 0 {
			lt.rootNs += float64(s.End - s.Start)
		}
	}
	return lt
}

// covered returns how much of [lo, hi) the union of the spans' intervals
// covers.
func covered(lo, hi int64, spans []span) int64 {
	var total int64
	cur := lo // everything before cur is already counted
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// meanUs is the mean self time of the named spans in microseconds.
func (lt layerTimes) meanUs(name string) float64 {
	xs := lt.self[name]
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)) / 1e3
}

// p50Us is the median self time of the named spans in microseconds.
func (lt layerTimes) p50Us(name string) float64 {
	return summarize(lt.self[name], nil).P50 / 1e3
}

// writeSpans writes the trace as one JSON array, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "[")
	for i, s := range spans {
		b, _ := json.Marshal(s) // a span always marshals
		w.Write(b)
		if i < len(spans)-1 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
