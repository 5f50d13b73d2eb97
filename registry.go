package regalloc

import "repro/internal/alloc"

// Register adds a named allocator factory to the global registry, making
// it selectable with WithAlgorithm(name). The factory is called once per
// engine worker (New calls it once itself, and rejects a nil
// allocator); instances it returns are never shared between goroutines,
// so they may keep per-instance scratch state. Registering a duplicate
// or empty name, or a nil factory, is an error.
//
// A registered allocator meets the one contract the built-ins meet:
// Allocate(p, lv, tm) rewrites p, the engine's own copy after dead-code
// elimination, in place; lv is p's liveness and tm the pipeline's phase
// timer, on which the allocator marks the phases it runs (the span it
// leaves unmarked counts as the scan phase; a nil tm marks nothing). A
// wrapper that forwards all three to a built-in runs exactly the path
// the built-in runs, phase timings included.
//
// The built-in allocators self-register as "binpack" (the paper's
// second-chance binpacking), "twopass", "coloring", "linearscan" and
// "oracle" (the branch-and-bound optimality oracle for small programs).
func Register(name string, factory func(*Machine) Allocator) error {
	// Machine and Allocator are aliases of the internal types, so the
	// signature is already an alloc.Factory.
	return alloc.Register(name, factory)
}

// Algorithms returns the names of every registered allocator, sorted.
func Algorithms() []string { return alloc.Names() }
