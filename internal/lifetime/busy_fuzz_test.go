package lifetime

import (
	"math"
	"slices"
	"testing"

	"repro/internal/target"
)

// fuzzBytes hands out the fuzzer's bytes one at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 || n <= 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// segments draws sorted, disjoint segments inside [0, numPos), with gaps
// of zero or more positions between them (touching segments stay
// separate, as a caller's list may have them).
func (b *fuzzBytes) segments(numPos int) []Segment {
	var segs []Segment
	pos := b.next(4)
	for n := b.next(8); n > 0 && pos < numPos; n-- {
		end := min(pos+b.next(6), numPos-1)
		segs = append(segs, Segment{int32(pos), int32(end)})
		pos = end + 1 + b.next(5)
	}
	return segs
}

// busyTable builds a RegBusy over the given per-register segments, start
// list included, the way Compute finishes one.
func busyTable(segs [][]Segment, numPos int) *RegBusy {
	rb := &RegBusy{segs: segs}
	rb.sortStarts(nil, numPos)
	return rb
}

// checkStarts compares rb's start list with every busy segment's start,
// sorted by position and then register.
func checkStarts(t *testing.T, rb *RegBusy) {
	t.Helper()
	var want []BusyStart
	for r, segs := range rb.segs {
		for _, s := range segs {
			want = append(want, BusyStart{s.Start, target.Reg(r)})
		}
	}
	slices.SortFunc(want, func(a, b BusyStart) int {
		if a.Pos != b.Pos {
			return int(a.Pos - b.Pos)
		}
		return int(a.Reg - b.Reg)
	})
	if got := rb.Starts(); !slices.Equal(got, want) {
		t.Fatalf("Starts() = %v, want %v", got, want)
	}
}

// freeOverRef is FreeOver by one FreeThrough per segment.
func freeOverRef(rb *RegBusy, r target.Reg, segs []Segment, from int32) bool {
	for _, s := range segs {
		if s.End >= from && !rb.FreeThrough(r, max(s.Start, from), s.End) {
			return false
		}
	}
	return true
}

// FuzzRegBusyQueries holds the forward-walking busy queries to the
// binary-search ones on random busy tables: a Cursor asked at
// non-decreasing positions answers as BusyAt/NextBusy, FreeOver answers
// as one FreeThrough per interval segment for any from and any hint
// (the cursor's index, even past from, or an arbitrary one), and the
// start list holds exactly the busy segment starts in (pos, reg) order.
func FuzzRegBusyQueries(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 7, 1, 2, 0, 5, 3, 1, 4, 4, 2, 6, 0, 1, 3, 7, 2, 2, 5, 1})
	f.Add([]byte("\x05\x1f\x02\x03\x00\x07\x01\x01\x06\x02\x04\x03\x00\x00\x05\x05\x02\x01\x07\x03\x06\x00\x01\x02\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		nr := 1 + b.next(6)
		numPos := 1 + b.next(64)
		segs := make([][]Segment, nr)
		for r := range segs {
			segs[r] = b.segments(numPos)
		}
		rb := busyTable(segs, numPos)
		checkStarts(t, rb)

		var c Cursor
		c.Reset(rb)
		for pos := int32(b.next(3)); pos <= int32(numPos)+1; pos += int32(b.next(4)) {
			for r := range nr {
				reg := target.Reg(r)
				if b.next(4) == 0 {
					continue // registers are asked at different positions
				}
				if got, want := c.NextBusy(reg, pos), rb.NextBusy(reg, pos); got != want {
					t.Fatalf("r%d pos %d: cursor NextBusy %d, NextBusy %d", r, pos, got, want)
				}
				if got, want := c.BusyAt(reg, pos), rb.BusyAt(reg, pos); got != want {
					t.Fatalf("r%d pos %d: cursor BusyAt %v, BusyAt %v", r, pos, got, want)
				}
				iv := b.segments(numPos)
				from := pos - int32(b.next(numPos)) + int32(b.next(3))
				want := freeOverRef(rb, reg, iv, from)
				for _, hint := range []int{c.Index(reg), 0, b.next(len(segs[r]) + 3)} {
					if got := rb.FreeOver(reg, iv, from, hint); got != want {
						t.Fatalf("r%d busy %v: FreeOver(%v, from %d, hint %d) = %v, want %v",
							r, segs[r], iv, from, hint, got, want)
					}
				}
				if got, want := rb.FreeOver(reg, iv, math.MinInt32, 0), freeOverRef(rb, reg, iv, math.MinInt32); got != want {
					t.Fatalf("r%d busy %v: FreeOver(%v, whole) = %v, want %v", r, segs[r], iv, got, want)
				}
			}
			if len(b) == 0 {
				break
			}
		}
	})
}
