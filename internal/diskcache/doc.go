// Package diskcache is the persistent tier of the allocation result
// cache: a disk-backed regalloc.ResultCache whose entries survive
// daemon restarts, so a node rejoins a cluster with its expensive
// allocations already warm.
//
// Entries are stored one file per content address under a directory
// (<sha256-hex>.entry), written atomically (temp file + rename) in the
// one wire form shared with cluster replication (Encode): the key, the
// allocated program's internal/irbin frame exactly as the memory tier
// holds it (initial memory image and loop depths included), and the
// full allocation Report. Open scans the directory, so a restart
// recovers every previously admitted entry; a file that fails to
// decode is deleted and counted, never fatal.
//
// Admission is cost-aware, the economics the paper's speed thesis
// implies: persisting a result only pays when redoing the allocation
// costs more than serializing and reloading it. Put measures the actual
// encode time of each candidate entry and admits it only when the
// allocation work recorded in its Report (the summed PhaseStats
// nanoseconds, i.e. what a future miss would have to re-spend) exceeds
// Config.CostFactor times that serialization cost. Cheap programs stay
// memory-only; hard ones — exactly the allocate-once/serve-many cases
// the combinatorial-allocation literature worries about — go to disk.
//
// Compose with the in-memory cache via regalloc.NewTieredCache; the
// serving daemon does this when started with -persist (see
// internal/serve and docs/OPERATIONS.md).
package diskcache
