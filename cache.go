package regalloc

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/irbin"
)

// CacheKey content-addresses one allocation request: it is a
// cryptographic digest over the program's canonical internal/irbin
// frame, the machine's convention-complete spec (target.Machine.Spec),
// and the engine configuration that affects the output (algorithm and
// pass toggles). The frame carries everything the allocator reads,
// including what the text form leaves implicit (temp numbering, each
// procedure's slot count, the initial memory image), so two requests
// share a key exactly when the engine would produce the same allocated
// program for both, and a cached result can be substituted for a fresh
// allocation without re-running any pipeline phase. A text body and
// the binary body encoding its parsed program share a key.
type CacheKey string

// CachedAllocation is one immutable cache entry: the allocated program
// as its canonical internal/irbin frame, and the report of the
// allocation that produced it. The frame holds no pointers, so a large
// cache costs the garbage collector nothing to scan. Entries are
// shared between all cache readers and must never be mutated; the
// engine decodes a fresh program (and copies the report) on every hit,
// so callers always own what AllocateCached returns.
//
// An alias entry, stored by a serving layer under a BytesKey, has no
// frame: it holds the canonical Key of the program the request's bytes
// parse to, that program's allocation as Printed text, and the report
// with Cached set, so a repeated request is answered without parsing,
// decoding or printing anything.
type CachedAllocation struct {
	Frame  []byte
	Report *Report

	Key     CacheKey
	Printed string
}

// CacheStats are a ResultCache's cumulative counters.
type CacheStats struct {
	// Entries is the current entry count; Capacity the maximum.
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

// WithCache installs a result cache consulted by AllocateCached. The
// same cache may back several engines (even for different machines or
// algorithms): the cache key covers the machine and configuration, so
// entries never collide across engines.
func WithCache(c *ResultCache) Option {
	return func(e *Engine) error {
		e.cache = c
		return nil
	}
}

// Cache returns the engine's result cache, or nil if none is installed.
func (e *Engine) Cache() *ResultCache { return e.cache }

// keyHead renders what every key of the engine hashes first: each
// engine knob that affects the allocated output, and the machine spec.
// Parallelism and phase profiling are excluded: results are
// deterministic regardless of the worker count, and profiling only
// annotates the report. New renders it once.
func (e *Engine) keyHead() []byte {
	return fmt.Appendf(nil, "algo=%s fwdstores=%t verify=%t\n%s\n",
		e.algorithm, e.pipe.ForwardStores, e.pipe.Verify, e.mach.Spec())
}

// sumKey finishes a key from its hash.
func sumKey(h hash.Hash) CacheKey {
	var sum [sha256.Size]byte
	return CacheKey("sha256:" + hex.EncodeToString(h.Sum(sum[:0])))
}

// keyFrames recycles the buffers CacheKey encodes programs into.
var keyFrames = sync.Pool{New: func() any { return new([]byte) }}

// CacheKey computes the content address AllocateCached uses for prog on
// this engine: sha256 over the engine configuration, the machine spec
// and the program's canonical irbin frame.
func (e *Engine) CacheKey(prog *Program) CacheKey {
	buf := keyFrames.Get().(*[]byte)
	*buf = irbin.AppendProgram((*buf)[:0], prog)
	h := sha256.New()
	h.Write(e.head)
	h.Write(*buf)
	keyFrames.Put(buf)
	return sumKey(h)
}

// BytesKey content-addresses a request by its raw program bytes rather
// than by the program they encode: sha256 over the engine
// configuration, the machine spec, the body form (a label such as
// "text" or "binary") and the bytes. Equal bytes in one form parse to
// equal programs under one engine, so an answer stored under this key
// (an alias entry, see CachedAllocation) holds for every later request
// with the same bytes. Its hashed preimage differs from every
// CacheKey's, so the two kinds of key cannot collide.
func (e *Engine) BytesKey(form string, program []byte) CacheKey {
	h := sha256.New()
	h.Write(e.head)
	fmt.Fprintf(h, "bytes=%s\n", form)
	h.Write(program)
	return sumKey(h)
}

// AllocateCached is AllocateProgram behind the engine's result cache,
// also returning the program's content address (the serving layer puts
// it in every response). On a hit the cached allocation is returned —
// decoded afresh, so the caller owns the result outright and cannot
// corrupt the shared entry — with Report.Cached set and zero pipeline
// work performed; on a miss the program is allocated as usual and the
// result is stored before being returned. An entry whose frame does not
// decode is a miss, and the fresh result replaces it. Without an
// installed cache it is AllocateProgram plus the key. Safe for
// concurrent use; concurrent misses on the same key allocate
// redundantly but harmlessly (results are deterministic).
func (e *Engine) AllocateCached(ctx context.Context, prog *Program) (*Program, *Report, CacheKey, error) {
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

// ResultCache stores finished allocations by content address; the
// engine consults it in AllocateCached when installed with WithCache.
// Entries are spread over independently locked shards (hash of the
// key), each an LRU list, so concurrent engine workers rarely contend
// on the same lock. Safe for concurrent use.
type ResultCache struct {
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

// cacheShards is the lock-shard count of every NewShardedCache.
const cacheShards = 16

// NewShardedCache returns a ResultCache holding at most capacity
// entries (DefaultCacheEntries when capacity <= 0), spread over 16
// independently locked LRU shards. Eviction is least-recently-used per
// shard.
func NewShardedCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return newShardedCache(capacity, cacheShards)
}

// newShardedCache spreads capacity (> 0) over nShards shards, at most
// one per entry.
func newShardedCache(capacity, nShards int) *ResultCache {
	if nShards > capacity {
		nShards = capacity
	}
	c := &ResultCache{shards: make([]cacheShard, nShards)}
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
func (c *ResultCache) shard(key CacheKey) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[int(h.Sum32())%len(c.shards)]
}

// Get returns the entry stored under key, if any.
func (c *ResultCache) Get(key CacheKey) (*CachedAllocation, bool) {
	return c.get(key, true)
}

// get looks key up, counting a hit and, when countMiss is set, a miss.
func (c *ResultCache) get(key CacheKey, countMiss bool) (*CachedAllocation, bool) {
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
		if countMiss {
			c.misses.Add(1)
		}
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Probe is Get for a lookup whose miss the caller follows with a
// counted Get for the same request (an alias probe before the canonical
// key): a hit counts, a miss does not, so Hits and Misses keep one
// outcome per request.
func (c *ResultCache) Probe(key CacheKey) (*CachedAllocation, bool) {
	return c.get(key, false)
}

// Put stores an entry under key, evicting older entries if needed.
// Entries are shared by every reader and must never be mutated.
func (c *ResultCache) Put(key CacheKey, e *CachedAllocation) {
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

// Stats reports the cache's cumulative counters.
func (c *ResultCache) Stats() CacheStats {
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
