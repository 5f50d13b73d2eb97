// Package scratch holds the capacity-reuse helpers every pooled arena
// in this repository is built on. Two variants exist because pooled
// buffers fall into two classes: value buffers the caller fully
// reinitializes (Grow), and pointer-bearing buffers whose capacity tail
// would otherwise pin objects from the largest workload ever seen for
// the lifetime of the pool (GrowCleared).
package scratch

// Grow returns buf resized to n, reusing its backing array when
// capacity allows. Elements are NOT cleared: callers must initialize
// all n entries before reading them. Use for buffers of plain values.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// GrowCleared returns buf resized to n with its ENTIRE capacity zeroed,
// not just [:n]: the tail beyond n would otherwise pin maps, slices and
// pointers from the largest workload ever seen for as long as the
// pooled buffer lives. Use for buffers whose element type reaches other
// objects.
func GrowCleared[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	full := buf[:cap(buf)]
	clear(full)
	return full[:n]
}

// Resize returns buf resized to n, reusing its backing array when
// capacity allows, and zeroes the elements from n to buf's old length:
// the ones a shorter reuse would leave pinning what the longer one
// stored. Elements past buf's length must already be zero, which holds
// when every resize of buf goes through Resize. Use for pointer-bearing
// buffers the caller fully rewrites at each use, where GrowCleared's
// clear of the whole capacity would cost a pass over the largest
// workload ever seen on every reuse.
func Resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	if n < len(buf) {
		clear(buf[n:])
	}
	return buf[:n]
}
