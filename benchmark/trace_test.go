package main

import (
	"testing"
)

// TestSelfTime checks that a span's self time is its duration minus the
// union of its children's intervals, and that self times of nested,
// non-overlapping spans sum to the root's wall time.
func TestSelfTime(t *testing.T) {
	tr := newTracer(16)
	root := tr.add(1, 0, "op", 0, 100)
	a := tr.add(1, root, "a", 10, 40)
	tr.add(1, a, "a.inner", 15, 20)
	tr.add(1, root, "b", 50, 70)
	lt := selfTimes(tr.spans)
	for name, want := range map[string]float64{"op": 50, "a": 25, "a.inner": 5, "b": 20} {
		if got := lt.self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
	if lt.selfNs != lt.rootNs {
		t.Errorf("self times sum to %v, root wall time is %v", lt.selfNs, lt.rootNs)
	}

	// Overlapping children cover their union once.
	tr = newTracer(4)
	root = tr.add(2, 0, "op", 0, 100)
	tr.add(2, root, "x", 10, 40)
	tr.add(2, root, "y", 30, 60)
	if got := selfTimes(tr.spans).self["op"][0]; got != 50 {
		t.Errorf("root self time with overlapping children = %v, want 50", got)
	}
}

func TestTracerBounds(t *testing.T) {
	var none *tracer
	if none.reserve(1) || none.add(1, 0, "x", 0, 1) != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
	tr := newTracer(3)
	if !tr.reserve(3) || tr.reserve(4) {
		t.Fatal("reserve must admit exactly the spans that fit")
	}
	if tr.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", tr.dropped)
	}
	if cap(tr.spans) != 3 {
		t.Fatal("the span slice must not be reallocated")
	}
}

func TestMergeSpansRenumbers(t *testing.T) {
	a, b := newTracer(2), newTracer(2)
	ra := a.add(1, 0, "op", 0, 10)
	a.add(1, ra, "x", 1, 2)
	rb := b.add(2, 0, "op", 0, 10)
	b.add(2, rb, "y", 3, 4)
	all, _ := mergeSpans([]*tracer{a, nil, b})
	if len(all) != 4 {
		t.Fatalf("merged %d spans, want 4", len(all))
	}
	ids := map[int32]bool{}
	for _, s := range all {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
	}
	if all[3].Parent != all[2].ID {
		t.Fatalf("child of the second tracer's root has parent %d, want %d", all[3].Parent, all[2].ID)
	}
}
