package regalloc

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/progs"
)

// cacheProg builds a deterministic program for cache tests.
func cacheProg(m *Machine, seed int64) *Program {
	return progs.Random(m, progs.DefaultGen(seed))
}

func progText(m *Machine, p *Program) string {
	var sb strings.Builder
	(&Printer{Mach: m}).WriteProgram(&sb, p)
	return sb.String()
}

func TestCacheKeyDeterminism(t *testing.T) {
	m := Tiny(6, 4)
	eng, err := New(m, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	k1 := eng.CacheKey(cacheProg(m, 7))
	k2 := eng.CacheKey(cacheProg(m, 7))
	if k1 != k2 {
		t.Fatalf("same program hashed differently: %s vs %s", k1, k2)
	}
	if k3 := eng.CacheKey(cacheProg(m, 8)); k3 == k1 {
		t.Fatal("different programs share a cache key")
	}

	// Every configuration knob that changes the output must change the
	// key.
	variants := []Option{
		WithAlgorithm("linearscan"),
		WithAlgorithm("twopass"),
		WithForwardStores(true),
	}
	for i, opt := range variants {
		ve, err := New(m, opt, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		if vk := ve.CacheKey(cacheProg(m, 7)); vk == k1 {
			t.Errorf("variant %d: configuration change did not change the cache key", i)
		}
	}

	// A different machine must change the key even under the same
	// configuration and program shape.
	m2 := Tiny(8, 6)
	e2, err := New(m2, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if k := e2.CacheKey(cacheProg(m2, 7)); k == k1 {
		t.Error("different machine did not change the cache key")
	}

	// The initial memory image is part of the content.
	pm := cacheProg(m, 7)
	base := eng.CacheKey(pm)
	pm.SetMem(3, 42)
	if eng.CacheKey(pm) == base {
		t.Error("MemInit change did not change the cache key")
	}
}

// countingAllocator wraps binpack and counts the procedures it
// allocates, so a test can tell whether the pipeline ran.
type countingAllocator struct {
	Allocator
	calls *atomic.Int64
}

func (c countingAllocator) Allocate(p *Proc) (*Result, error) {
	c.calls.Add(1)
	return c.Allocator.Allocate(p)
}

var (
	registerCountingOnce sync.Once
	countingCalls        atomic.Int64
)

func TestAllocateCachedHitSkipsPipeline(t *testing.T) {
	registerCountingOnce.Do(func() {
		if err := Register("cache-counting", func(m *Machine) Allocator {
			return countingAllocator{Allocator: core.NewDefault(m), calls: &countingCalls}
		}); err != nil {
			t.Fatal(err)
		}
	})
	m := Tiny(6, 4)
	eng, err := New(m, WithAlgorithm("cache-counting"), WithCache(NewShardedCache(64, 4)))
	if err != nil {
		t.Fatal(err)
	}
	countingCalls.Store(0)
	prog := cacheProg(m, 11)

	out1, rep1, err := eng.AllocateCached(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Cached {
		t.Fatal("first allocation reported Cached")
	}
	missCalls := countingCalls.Load()
	if missCalls == 0 {
		t.Fatal("miss path allocated no procedures")
	}

	out2, rep2, err := eng.AllocateCached(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Cached {
		t.Fatal("second allocation not served from cache")
	}
	if got := countingCalls.Load(); got != missCalls {
		t.Fatalf("hit path ran the pipeline: %d allocations after hit, want %d", got, missCalls)
	}
	// The hit performed zero phase work of its own: the report's phase
	// stats are the original allocation's, byte-identical.
	if got, want := fmt.Sprint(rep2.PhaseStats), fmt.Sprint(rep1.PhaseStats); got != want {
		t.Errorf("hit report phases diverge from the original:\n got %s\nwant %s", got, want)
	}
	if progText(m, out2) != progText(m, out1) {
		t.Error("cached program differs from the original allocation")
	}

	st := eng.Cache().Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestAllocateCachedMutationIsolation(t *testing.T) {
	m := Tiny(6, 4)
	eng, err := New(m, WithCache(NewShardedCache(64, 4)))
	if err != nil {
		t.Fatal(err)
	}
	prog := cacheProg(m, 13)

	// Populate, then grab a hit and vandalize everything reachable.
	if _, _, err := eng.AllocateCached(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	hit, rep, err := eng.AllocateCached(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	want := progText(m, hit)
	for _, p := range hit.Procs {
		for _, b := range p.Blocks {
			for i := range b.Instrs {
				b.Instrs[i].Op = ir.Nop
				b.Instrs[i].Uses = nil
				b.Instrs[i].Defs = nil
			}
		}
	}
	hit.SetMem(0, -999)
	rep.Procs = nil
	rep.Totals = Stats{}

	// The cache entry must be unaffected: a fresh hit reproduces the
	// original allocation and report.
	again, rep2, err := eng.AllocateCached(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Cached {
		t.Fatal("expected a cache hit")
	}
	if got := progText(m, again); got != want {
		t.Error("mutating a returned program corrupted the cache entry")
	}
	if len(rep2.Procs) == 0 || rep2.Totals.Candidates == 0 {
		t.Error("mutating a returned report corrupted the cached report")
	}
	if again.MemInit[0] == -999 {
		t.Error("mutating returned MemInit corrupted the cache entry")
	}
}

func TestShardedCacheEviction(t *testing.T) {
	c := NewShardedCache(2, 1) // 2 entries, one shard: strict LRU
	mk := func(i int) (CacheKey, *CachedAllocation) {
		return CacheKey(fmt.Sprintf("k%d", i)), &CachedAllocation{}
	}
	k0, v0 := mk(0)
	k1, v1 := mk(1)
	k2, v2 := mk(2)
	c.Put(k0, v0)
	c.Put(k1, v1)
	if _, ok := c.Get(k0); !ok { // k0 now most recent
		t.Fatal("k0 missing before eviction")
	}
	c.Put(k2, v2) // evicts k1 (least recently used)
	if _, ok := c.Get(k1); ok {
		t.Error("k1 survived eviction past capacity")
	}
	if _, ok := c.Get(k0); !ok {
		t.Error("LRU evicted the recently used k0")
	}
	if _, ok := c.Get(k2); !ok {
		t.Error("k2 missing after Put")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Capacity != 2 {
		t.Errorf("stats = %+v, want 2 entries / 1 eviction / capacity 2", st)
	}
}

func TestAllocateCachedConcurrent(t *testing.T) {
	m := Tiny(6, 4)
	eng, err := New(m, WithCache(NewShardedCache(32, 8)))
	if err != nil {
		t.Fatal(err)
	}
	progsN := 4
	want := make([]string, progsN)
	for i := 0; i < progsN; i++ {
		out, _, err := eng.AllocateProgram(context.Background(), cacheProg(m, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = progText(m, out)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				seed := (w + i) % progsN
				out, _, err := eng.AllocateCached(context.Background(), cacheProg(m, int64(seed)))
				if err != nil {
					t.Error(err)
					return
				}
				if progText(m, out) != want[seed] {
					t.Errorf("seed %d: concurrent cached result diverged", seed)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := eng.Cache().Stats(); st.Hits == 0 {
		t.Error("no cache hits under concurrent load")
	}
}
