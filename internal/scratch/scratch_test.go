package scratch

import "testing"

func TestGrowReusesCapacity(t *testing.T) {
	buf := make([]int, 0, 16)
	buf = append(buf, 1, 2, 3)

	grown := Grow(buf, 8)
	if len(grown) != 8 {
		t.Fatalf("len = %d, want 8", len(grown))
	}
	if &grown[0] != &buf[0] {
		t.Fatal("Grow reallocated despite sufficient capacity")
	}
	// Grow does NOT clear: the surviving prefix is still visible, which
	// is the documented contract (callers fully reinitialize).
	if grown[0] != 1 || grown[1] != 2 || grown[2] != 3 {
		t.Fatalf("prefix clobbered: %v", grown[:3])
	}

	big := Grow(grown, 64)
	if len(big) != 64 || cap(big) < 64 {
		t.Fatalf("len/cap = %d/%d", len(big), cap(big))
	}
	if cap(grown) >= 64 {
		t.Fatal("test premise broken: expected a reallocation")
	}

	// Shrinking reuses in place.
	small := Grow(big, 2)
	if len(small) != 2 || &small[0] != &big[0] {
		t.Fatal("shrink did not reuse the backing array")
	}
}

func TestGrowZeroAndEmpty(t *testing.T) {
	var nilBuf []string
	out := Grow(nilBuf, 0)
	if len(out) != 0 {
		t.Fatalf("len = %d", len(out))
	}
	out = Grow(nilBuf, 3)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
}

func TestGrowClearedClearsWholeCapacity(t *testing.T) {
	type holder struct{ p *int }
	v := 42
	buf := make([]holder, 8, 8)
	for i := range buf {
		buf[i] = holder{p: &v}
	}

	// Resize down to 2: the tail beyond len must ALSO be cleared, or the
	// pooled buffer would pin &v until the next workload of size 8.
	out := GrowCleared(buf, 2)
	if len(out) != 2 {
		t.Fatalf("len = %d, want 2", len(out))
	}
	if &out[0] != &buf[0] {
		t.Fatal("GrowCleared reallocated despite sufficient capacity")
	}
	for i := 0; i < 2; i++ {
		if out[i].p != nil {
			t.Fatalf("element %d not cleared", i)
		}
	}
	full := out[:cap(out)]
	for i := range full {
		if full[i].p != nil {
			t.Fatalf("capacity tail element %d still pins its pointer", i)
		}
	}
}

func TestGrowClearedReallocates(t *testing.T) {
	buf := make([]int, 2, 2)
	buf[0], buf[1] = 7, 8
	out := GrowCleared(buf, 5)
	if len(out) != 5 {
		t.Fatalf("len = %d", len(out))
	}
	for i, x := range out {
		if x != 0 {
			t.Fatalf("fresh element %d = %d", i, x)
		}
	}
	// The original buffer is untouched on the reallocation path.
	if buf[0] != 7 || buf[1] != 8 {
		t.Fatalf("source buffer clobbered: %v", buf)
	}
}

func TestResizeClearsTheStaleTail(t *testing.T) {
	type node struct{ p *int }
	x := 1
	buf := Resize[node](nil, 6)
	for i := range buf {
		buf[i].p = &x
	}
	out := Resize(buf, 2)
	if len(out) != 2 || &out[0] != &buf[0] {
		t.Fatalf("len %d, or reallocated despite sufficient capacity", len(out))
	}
	if out[0].p != &x || out[1].p != &x {
		t.Fatal("Resize cleared the kept prefix")
	}
	full := out[:cap(out)]
	for i := 2; i < len(full); i++ {
		if full[i].p != nil {
			t.Fatalf("stale element %d still pins its pointer", i)
		}
	}
	if again := Resize(out, 5); len(again) != 5 || &again[0] != &buf[0] {
		t.Fatal("growing within capacity reallocated")
	}
}
