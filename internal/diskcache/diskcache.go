package diskcache

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	regalloc "repro"
)

// Config tunes a Cache. Only Dir is required.
type Config struct {
	// Dir is the directory holding the entry files; it is created if
	// missing.
	Dir string
	// MaxEntries bounds the tier; least-recently-used entries (their
	// files) are deleted beyond it (0 = DefaultMaxEntries).
	MaxEntries int
	// CostFactor is the admission bar: an entry is persisted only when
	// its Report records at least CostFactor× as much allocation work
	// as serializing the entry costs (measured per Put). 0 selects
	// DefaultCostFactor; negative admits everything (useful in tests
	// and for replication-seeded nodes).
	CostFactor float64
}

// DefaultMaxEntries bounds the tier when Config.MaxEntries is 0.
const DefaultMaxEntries = 65536

// DefaultCostFactor is the admission bar when Config.CostFactor is 0:
// the allocation must cost at least twice its serialization (the write
// now plus roughly one read later) before persisting it pays.
const DefaultCostFactor = 2.0

// AdmissionStats reports the cost-aware admission behavior of a Cache.
type AdmissionStats struct {
	// Admitted counts Puts written to disk; RejectedCost counts Puts
	// declined because the allocation was cheaper than the admission
	// bar; Corrupt counts on-disk entries dropped because they failed
	// to decode.
	Admitted     uint64 `json:"admitted"`
	RejectedCost uint64 `json:"rejected_cost"`
	Corrupt      uint64 `json:"corrupt"`
	// LastWorkNs / LastSerNs are the most recent Put's recorded
	// allocation work and measured serialization cost — the two sides
	// of the admission comparison, exposed for observability.
	LastWorkNs int64 `json:"last_work_ns"`
	LastSerNs  int64 `json:"last_ser_ns"`
}

// Cache is the disk-backed ResultCache tier. Construct with Open; safe
// for concurrent use.
type Cache struct {
	cfg Config

	mu    sync.Mutex
	index map[regalloc.CacheKey]*list.Element
	lru   *list.List // front = most recently used; values are *fileEnt

	hits, misses, evicted       atomic.Uint64
	admitted, rejected, corrupt atomic.Uint64
	lastWorkNs, lastSerNs       atomic.Int64
}

// fileEnt is one index node.
type fileEnt struct {
	key  regalloc.CacheKey
	path string
}

// Open scans dir (creating it if needed) and returns the tier with
// every decodable previous entry indexed, most recently modified first.
func Open(cfg Config) (*Cache, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("diskcache: Open: empty directory")
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.CostFactor == 0 {
		cfg.CostFactor = DefaultCostFactor
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	c := &Cache{
		cfg:   cfg,
		index: make(map[regalloc.CacheKey]*list.Element),
		lru:   list.New(),
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	type found struct {
		path  string
		key   regalloc.CacheKey
		mtime time.Time
	}
	var files []found
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), entrySuffix) {
			continue
		}
		path := filepath.Join(cfg.Dir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		key, _, err := Decode(data)
		if err != nil {
			// A torn write or stray file: drop it rather than serve it.
			c.corrupt.Add(1)
			_ = os.Remove(path)
			continue
		}
		info, err := de.Info()
		mt := time.Time{}
		if err == nil {
			mt = info.ModTime()
		}
		files = append(files, found{path: path, key: key, mtime: mt})
	}
	// Most recently written first, so the recovered LRU order
	// approximates the pre-restart one and eviction starts from the
	// stalest entries.
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.After(files[j].mtime) })
	for _, f := range files {
		if _, dup := c.index[f.key]; dup {
			_ = os.Remove(f.path)
			continue
		}
		c.index[f.key] = c.lru.PushBack(&fileEnt{key: f.key, path: f.path})
	}
	c.evictLocked()
	return c, nil
}

const entrySuffix = ".entry"

// path maps a key onto its entry file: the hex digest when the key is
// a well-formed content address, else a fresh sha256 of the key text.
func (c *Cache) path(key regalloc.CacheKey) string {
	name := string(key)
	if _, hex, ok := strings.Cut(name, ":"); ok && hex != "" && !strings.ContainsAny(hex, "/.") {
		name = hex
	} else {
		name = fmt.Sprintf("%x", sha256.Sum256([]byte(key)))
	}
	return filepath.Join(c.cfg.Dir, name+entrySuffix)
}

// Get implements ResultCache. Each hit reads and decodes the entry file
// afresh — the returned entry is private to the caller by construction,
// and the memory tier in front of this one makes repeat reads rare.
func (c *Cache) Get(key regalloc.CacheKey) (*regalloc.CachedAllocation, bool) {
	c.mu.Lock()
	el, ok := c.index[key]
	var path string
	if ok {
		path = el.Value.(*fileEnt).path
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		// Concurrently evicted, or the file vanished underneath us:
		// either way it is a miss, and the index entry must go.
		c.dropIndex(key)
		c.misses.Add(1)
		return nil, false
	}
	_, entry, err := Decode(data)
	if err != nil {
		c.corrupt.Add(1)
		c.dropIndex(key)
		_ = os.Remove(path)
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return entry, true
}

// Put implements ResultCache with cost-aware admission: the entry is
// serialized (its cost measured), and written only when the recorded
// allocation work clears CostFactor× that serialization cost.
func (c *Cache) Put(key regalloc.CacheKey, e *regalloc.CachedAllocation) {
	start := time.Now()
	data, err := Encode(key, e)
	serNs := time.Since(start).Nanoseconds()
	if err != nil {
		return
	}
	work := allocWorkNs(e.Report)
	c.lastWorkNs.Store(work)
	c.lastSerNs.Store(serNs)
	if c.cfg.CostFactor >= 0 && float64(work) < c.cfg.CostFactor*float64(serNs) {
		c.rejected.Add(1)
		return
	}
	path := c.path(key)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return
	}
	c.admitted.Add(1)
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
	} else {
		c.index[key] = c.lru.PushFront(&fileEnt{key: key, path: path})
	}
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked deletes least-recently-used entry files beyond the bound.
func (c *Cache) evictLocked() {
	for c.lru.Len() > c.cfg.MaxEntries {
		back := c.lru.Back()
		fe := back.Value.(*fileEnt)
		c.lru.Remove(back)
		delete(c.index, fe.key)
		_ = os.Remove(fe.path)
		c.evicted.Add(1)
	}
}

// dropIndex removes a key from the index (its file is already gone or
// being removed by the caller).
func (c *Cache) dropIndex(key regalloc.CacheKey) {
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.lru.Remove(el)
		delete(c.index, key)
	}
	c.mu.Unlock()
}

// Stats implements ResultCache.
func (c *Cache) Stats() regalloc.CacheStats {
	c.mu.Lock()
	entries := c.lru.Len()
	c.mu.Unlock()
	return regalloc.CacheStats{
		Entries:   entries,
		Capacity:  c.cfg.MaxEntries,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicted.Load(),
	}
}

// Admission reports the tier's cost-aware admission counters.
func (c *Cache) Admission() AdmissionStats {
	return AdmissionStats{
		Admitted:     c.admitted.Load(),
		RejectedCost: c.rejected.Load(),
		Corrupt:      c.corrupt.Load(),
		LastWorkNs:   c.lastWorkNs.Load(),
		LastSerNs:    c.lastSerNs.Load(),
	}
}

// allocWorkNs prices a future miss on this entry: the summed per-phase
// pipeline time its Report recorded, falling back to the batch wall
// time when phase stats are absent.
func allocWorkNs(rep *regalloc.Report) int64 {
	var total int64
	for _, ps := range rep.PhaseStats {
		total += ps.Ns
	}
	if total == 0 {
		total = rep.WallTime.Nanoseconds()
	}
	return total
}
