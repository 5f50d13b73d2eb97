package regalloc

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/irbin"
)

// CacheKey content-addresses one allocation request: it is a
// cryptographic digest over the program's canonical textual form (plus
// its initial memory image), the machine's convention-complete spec
// (target.Machine.Spec), and the engine configuration that affects the
// output (algorithm and pass toggles). Two requests
// share a key exactly when the engine would produce the same allocated
// program for both, so a cached result can be substituted for a fresh
// allocation without re-running any pipeline phase.
type CacheKey string

// CachedAllocation is one immutable cache entry: the allocated program
// as its canonical internal/irbin frame, and the report of the
// allocation that produced it. The frame holds no pointers, so a large
// cache costs the garbage collector nothing to scan, and it is the
// same bytes the disk tier and cluster replication carry. Entries are
// shared between all cache readers and must never be mutated; the
// engine decodes a fresh program (and copies the report) on every hit,
// so callers always own what AllocateCached returns.
type CachedAllocation struct {
	Frame  []byte
	Report *Report
}

// ResultCache stores finished allocations by content address. The
// engine consults it in AllocateCached when installed with WithCache;
// implementations must be safe for concurrent use. NewShardedCache is
// the built-in implementation; library users may inject their own
// (e.g. a distributed cache) as long as entries are treated as
// immutable.
type ResultCache interface {
	// Get returns the entry stored under key, if any.
	Get(key CacheKey) (*CachedAllocation, bool)
	// Put stores an entry under key, evicting older entries if needed.
	Put(key CacheKey, e *CachedAllocation)
	// Stats reports the cache's cumulative counters.
	Stats() CacheStats
}

// CacheStats are a ResultCache's cumulative counters.
type CacheStats struct {
	// Entries is the current entry count; Capacity the maximum (0 if
	// unbounded).
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Hits and Misses count Get outcomes; Evictions counts entries
	// dropped to make room.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// HitRate returns the fraction of Gets that hit, or 0 before any Get.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// HotEntry pairs a cache key with its entry, as returned by HotLister.
type HotEntry struct {
	Key   CacheKey
	Entry *CachedAllocation
}

// HotLister is an optional ResultCache capability: caches that track
// recency can enumerate their hottest (most recently used) entries.
// The cluster layer uses it to replicate a node's hot working set to
// its ring successor before the node leaves, and to warm a joining
// node from the successor that previously owned its key range.
// NewShardedCache implements it; the tiered cache delegates to its
// fast tier.
type HotLister interface {
	// Hottest returns up to n entries in roughly
	// most-recently-used-first order. The entries are shared and must
	// be treated as immutable.
	Hottest(n int) []HotEntry
}

// WithCache installs a result cache consulted by AllocateCached. The
// same cache may back several engines (even for different machines or
// algorithms): the cache key covers the machine and configuration, so
// entries never collide across engines.
func WithCache(c ResultCache) Option {
	return func(e *Engine) error {
		e.cache = c
		return nil
	}
}

// Cache returns the engine's result cache, or nil if none is installed.
func (e *Engine) Cache() ResultCache { return e.cache }

// configFingerprint renders every engine knob that affects the
// allocated output. Parallelism and phase profiling are excluded:
// results are deterministic regardless of the worker count, and
// profiling only annotates the report.
func (e *Engine) configFingerprint() string {
	return fmt.Sprintf("algo=%s fwdstores=%t verify=%t",
		e.algorithm, e.pipe.ForwardStores, e.pipe.Verify)
}

// CacheKey computes the content address AllocateCached uses for prog on
// this engine: sha256 over the engine configuration, the machine spec,
// the program's canonical text, and its initial memory image.
func (e *Engine) CacheKey(prog *Program) CacheKey {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s", e.configFingerprint(), e.mach.Spec())
	(&ir.Printer{}).WriteProgram(h, prog)
	if len(prog.MemInit) > 0 {
		addrs := make([]int, 0, len(prog.MemInit))
		for a := range prog.MemInit {
			addrs = append(addrs, a)
		}
		sort.Ints(addrs)
		for _, a := range addrs {
			fmt.Fprintf(h, "mem[%d]=%d\n", a, prog.MemInit[a])
		}
	}
	return CacheKey(fmt.Sprintf("sha256:%x", h.Sum(nil)))
}

// AllocateCached is AllocateProgram behind the engine's result cache:
// on a hit the cached allocation is returned — decoded afresh, so the
// caller owns the result outright and cannot corrupt the shared entry —
// with Report.Cached set and zero pipeline work performed; on a miss
// the program is allocated as usual and the result is stored before
// being returned. An entry whose frame does not decode is a miss, and
// the fresh result replaces it. Without an installed cache it is
// exactly AllocateProgram. Safe for concurrent use; concurrent misses
// on the same key allocate redundantly but harmlessly (results are
// deterministic).
func (e *Engine) AllocateCached(ctx context.Context, prog *Program) (*Program, *Report, error) {
	out, rep, _, err := e.AllocateCachedKey(ctx, prog)
	return out, rep, err
}

// AllocateCachedKey is AllocateCached, additionally returning the
// computed content address so callers that need the key (the serving
// layer puts it in every response) do not hash the program a second
// time. Without an installed cache the key is still computed and
// returned.
func (e *Engine) AllocateCachedKey(ctx context.Context, prog *Program) (*Program, *Report, CacheKey, error) {
	key := e.CacheKey(prog)
	if e.cache == nil {
		out, rep, err := e.AllocateProgram(ctx, prog)
		return out, rep, key, err
	}
	if ent, ok := e.cache.Get(key); ok {
		// The decoded program's strings alias the frame, which is never
		// mutated; everything else is freshly built for the caller.
		if out, err := irbin.DecodeProgram(ent.Frame); err == nil {
			rep := ent.Report.copy()
			rep.Cached = true
			return out, rep, key, nil
		}
	}
	out, rep, err := e.AllocateProgram(ctx, prog)
	if err != nil {
		return nil, nil, key, err
	}
	// Store private copies: the caller owns out and rep and is free to
	// mutate both after we return.
	e.cache.Put(key, &CachedAllocation{Frame: irbin.EncodeProgram(out), Report: rep.copy()})
	return out, rep, key, nil
}

// copy returns a deep copy of the report (fresh slice headers), so a
// cached report stays immutable while callers own theirs.
func (r *Report) copy() *Report {
	c := *r
	c.Procs = append([]ProcReport(nil), r.Procs...)
	c.PhaseStats = append([]PhaseStat(nil), r.PhaseStats...)
	return &c
}

// shardedCache is the built-in ResultCache: entries are spread over
// independently locked shards (hash of the key), each an LRU list, so
// concurrent engine workers rarely contend on the same lock.
type shardedCache struct {
	shards  []cacheShard
	hits    atomic.Uint64
	misses  atomic.Uint64
	evicted atomic.Uint64
}

type cacheShard struct {
	mu      sync.Mutex
	cap     int // this shard's entry bound; shard caps sum to capacity
	entries map[CacheKey]*list.Element
	lru     *list.List // front = most recently used
}

// lruEntry is one shard LRU node.
type lruEntry struct {
	key CacheKey
	val *CachedAllocation
}

// DefaultCacheEntries is the capacity NewShardedCache uses when asked
// for a non-positive one.
const DefaultCacheEntries = 4096

// NewShardedCache returns a concurrency-safe ResultCache holding at
// most capacity entries (DefaultCacheEntries when capacity <= 0),
// spread over nShards independently locked LRU shards (16 when
// nShards <= 0). Eviction is least-recently-used per shard.
func NewShardedCache(capacity, nShards int) ResultCache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	if nShards <= 0 {
		nShards = 16
	}
	if nShards > capacity {
		nShards = capacity
	}
	c := &shardedCache{shards: make([]cacheShard, nShards)}
	for i := range c.shards {
		// Spread capacity exactly: the first capacity%nShards shards
		// hold one extra entry, and the shard caps sum to capacity.
		c.shards[i].cap = capacity / nShards
		if i < capacity%nShards {
			c.shards[i].cap++
		}
		c.shards[i].entries = make(map[CacheKey]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// shard maps a key onto its shard by FNV-1a hash.
func (c *shardedCache) shard(key CacheKey) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[int(h.Sum32())%len(c.shards)]
}

func (c *shardedCache) Get(key CacheKey) (*CachedAllocation, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.entries[key]
	var val *CachedAllocation
	if ok {
		s.lru.MoveToFront(el)
		val = el.Value.(*lruEntry).val
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

func (c *shardedCache) Put(key CacheKey, e *CachedAllocation) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*lruEntry).val = e
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.entries[key] = s.lru.PushFront(&lruEntry{key: key, val: e})
	var evictions uint64
	for s.lru.Len() > s.cap {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.entries, back.Value.(*lruEntry).key)
		evictions++
	}
	s.mu.Unlock()
	if evictions > 0 {
		c.evicted.Add(evictions)
	}
}

// Hottest implements HotLister: it takes entries from the
// most-recently-used end of every shard's LRU list, round-robin, so the
// result is approximately MRU-first across the whole cache (exact order
// between shards is not tracked — the hits that matter for replication
// are "in the working set or not", not their exact rank).
func (c *shardedCache) Hottest(n int) []HotEntry {
	if n <= 0 {
		return nil
	}
	out := make([]HotEntry, 0, n)
	// els[i] walks shard i front→back.
	els := make([]*list.Element, len(c.shards))
	for i := range c.shards {
		c.shards[i].mu.Lock()
		els[i] = c.shards[i].lru.Front()
	}
	for len(out) < n {
		advanced := false
		for i := range els {
			if els[i] == nil {
				continue
			}
			e := els[i].Value.(*lruEntry)
			out = append(out, HotEntry{Key: e.key, Entry: e.val})
			els[i] = els[i].Next()
			advanced = true
			if len(out) == n {
				break
			}
		}
		if !advanced {
			break
		}
	}
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
	return out
}

func (c *shardedCache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicted.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		st.Capacity += s.cap
		s.mu.Lock()
		st.Entries += s.lru.Len()
		s.mu.Unlock()
	}
	return st
}

// TieredCache chains a fast (memory) tier in front of a slow
// (persistent) tier behind the one ResultCache interface. Gets consult
// the fast tier first and promote slow-tier hits into it; Puts write
// both tiers, leaving the slow tier free to refuse entries by policy
// (cost-aware admission in internal/diskcache). Build with
// NewTieredCache; the serving daemon assembles one when started with a
// persistence directory, which is how warm entries survive a restart.
type TieredCache struct {
	fast, slow ResultCache
}

// NewTieredCache composes a fast and a slow ResultCache into one.
func NewTieredCache(fast, slow ResultCache) *TieredCache {
	return &TieredCache{fast: fast, slow: slow}
}

// Get consults the fast tier, then the slow tier (promoting a hit into
// the fast tier so the disk is read once per working-set entry).
func (t *TieredCache) Get(key CacheKey) (*CachedAllocation, bool) {
	if e, ok := t.fast.Get(key); ok {
		return e, true
	}
	e, ok := t.slow.Get(key)
	if !ok {
		return nil, false
	}
	t.fast.Put(key, e)
	return e, true
}

// Put stores into both tiers; the slow tier applies its own admission
// policy and may decline.
func (t *TieredCache) Put(key CacheKey, e *CachedAllocation) {
	t.fast.Put(key, e)
	t.slow.Put(key, e)
}

// Stats reports the composite view a caller of the plain interface
// expects: lookups counted once (the fast tier sees every Get), entries
// and capacity summed across tiers. Per-tier numbers are available via
// TierStats.
func (t *TieredCache) Stats() CacheStats {
	fast, slow := t.fast.Stats(), t.slow.Stats()
	return CacheStats{
		Entries:  fast.Entries + slow.Entries,
		Capacity: fast.Capacity + slow.Capacity,
		// A composite hit is a hit in either tier; every Get reaches the
		// fast tier, and only fast misses reach the slow tier.
		Hits:      fast.Hits + slow.Hits,
		Misses:    slow.Misses,
		Evictions: fast.Evictions + slow.Evictions,
	}
}

// TierStats returns the fast and slow tiers' own counters.
func (t *TieredCache) TierStats() (fast, slow CacheStats) {
	return t.fast.Stats(), t.slow.Stats()
}

// Hottest implements HotLister by delegating to the fast tier (the
// recency signal lives there); a fast tier without the capability
// yields nil.
func (t *TieredCache) Hottest(n int) []HotEntry {
	if hl, ok := t.fast.(HotLister); ok {
		return hl.Hottest(n)
	}
	return nil
}
