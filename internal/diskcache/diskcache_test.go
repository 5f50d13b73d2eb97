package diskcache

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	regalloc "repro"
	"repro/internal/irbin"
	"repro/internal/progs"
)

// allocate runs one real allocation on a small machine and returns the
// program's content address, the allocated program and its report.
func allocate(t *testing.T, seed int64) (regalloc.CacheKey, *regalloc.Program, *regalloc.Report) {
	t.Helper()
	eng, err := regalloc.New(regalloc.Tiny(6, 4), regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	prog := progs.Random(eng.Machine(), progs.DefaultGen(seed))
	prog.SetMem(3, 42)
	key := eng.CacheKey(prog)
	out, rep, err := eng.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	return key, out, rep
}

// testEntry returns a real allocation's content address and cache
// entry, exactly as the engine would hand them to a cache.
func testEntry(t *testing.T, seed int64) (regalloc.CacheKey, *regalloc.CachedAllocation) {
	t.Helper()
	key, out, rep := allocate(t, seed)
	return key, &regalloc.CachedAllocation{Frame: irbin.EncodeProgram(out), Report: rep}
}

func TestWireRoundTrip(t *testing.T) {
	key, entry := testEntry(t, 7)
	data, err := Encode(key, entry)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key {
		t.Errorf("key %s round-tripped to %s", key, gotKey)
	}
	if got.Report.Algorithm != entry.Report.Algorithm {
		t.Errorf("report algorithm %q → %q", entry.Report.Algorithm, got.Report.Algorithm)
	}
	if !bytes.Equal(got.Frame, entry.Frame) {
		t.Error("frame bytes changed in the wire form")
	}
	prog, err := irbin.DecodeProgram(got.Frame)
	if err != nil {
		t.Fatal(err)
	}
	if prog.MemInit[3] != 42 {
		t.Errorf("MemInit lost: %v", prog.MemInit)
	}
	again, err := Encode(gotKey, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Error("wire form is not a round-trip fixpoint")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// JSON documents are not entries.
	for _, bad := range []string{"", "{", `{"key":""}`, `{"key":"sha256:ab","program":"@#$%","report":{}}`, magic, magic + "\x00"} {
		if _, _, err := Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%q) succeeded", bad)
		}
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	key, entry := testEntry(t, 11)

	c1, err := Open(Config{Dir: dir, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key, entry)
	if _, ok := c1.Get(key); !ok {
		t.Fatal("entry not readable from the tier that wrote it")
	}

	// A "restart": a second Cache over the same directory must serve the
	// entry warm.
	c2, err := Open(Config{Dir: dir, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("entry did not survive reopen")
	}
	if got.Report.Algorithm != entry.Report.Algorithm {
		t.Errorf("reopened entry algorithm %q, want %q", got.Report.Algorithm, entry.Report.Algorithm)
	}
	if st := c2.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Errorf("stats after reopen+hit = %+v, want 1 entry, 1 hit", st)
	}
}

func TestCostAwareAdmission(t *testing.T) {
	key, entry := testEntry(t, 13)

	// An impossible bar rejects everything.
	picky, err := Open(Config{Dir: t.TempDir(), CostFactor: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	picky.Put(key, entry)
	if _, ok := picky.Get(key); ok {
		t.Error("entry admitted past a 1e12× cost bar")
	}
	adm := picky.Admission()
	if adm.RejectedCost != 1 || adm.Admitted != 0 {
		t.Errorf("admission = %+v, want 1 rejection, 0 admissions", adm)
	}
	if adm.LastWorkNs <= 0 || adm.LastSerNs <= 0 {
		t.Errorf("admission comparison sides not recorded: %+v", adm)
	}

	// A negative factor admits everything, however cheap.
	eager, err := Open(Config{Dir: t.TempDir(), CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	eager.Put(key, entry)
	if _, ok := eager.Get(key); !ok {
		t.Error("CostFactor<0 did not admit the entry")
	}
	if adm := eager.Admission(); adm.Admitted != 1 {
		t.Errorf("admission = %+v, want 1 admission", adm)
	}
}

func TestCorruptEntryDropped(t *testing.T) {
	dir := t.TempDir()
	key, entry := testEntry(t, 17)
	c1, err := Open(Config{Dir: dir, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key, entry)

	// Tear the file, then reopen: the scan must drop it, not serve it.
	files, err := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if err != nil || len(files) != 1 {
		t.Fatalf("entry files = %v (err %v), want exactly one", files, err)
	}
	whole, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(Config{Dir: dir, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); ok {
		t.Fatal("corrupt entry served")
	}
	if adm := c2.Admission(); adm.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", adm.Corrupt)
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Error("corrupt entry file not removed")
	}
}

func TestEvictionBound(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Dir: dir, MaxEntries: 2, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	var keys []regalloc.CacheKey
	for seed := int64(20); seed < 23; seed++ {
		key, entry := testEntry(t, seed)
		c.Put(key, entry)
		keys = append(keys, key)
		time.Sleep(2 * time.Millisecond) // distinct mtimes for the reopen check
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries after 1 eviction", st)
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if len(files) != 2 {
		t.Errorf("%d entry files on disk, want 2", len(files))
	}

	// Reopen with a tighter bound: recovery must evict the stalest file.
	c2, err := Open(Config{Dir: dir, MaxEntries: 1, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Entries != 1 {
		t.Errorf("entries after bounded reopen = %d, want 1", st.Entries)
	}
	if _, ok := c2.Get(keys[2]); !ok {
		t.Error("most recently written entry evicted by recovery, want the stalest")
	}
}

func TestEntryFileNames(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Dir: dir, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	key, entry := testEntry(t, 29)
	c.Put(key, entry)
	files, _ := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if len(files) != 1 {
		t.Fatalf("%d entry files, want 1", len(files))
	}
	// Content-addressed name: the key's hex digest.
	_, hex, _ := strings.Cut(string(key), ":")
	if want := hex + entrySuffix; filepath.Base(files[0]) != want {
		t.Errorf("entry file %s, want %s", filepath.Base(files[0]), want)
	}
}

// TestConcurrentGetPut drives one tier from several goroutines at once,
// with a bound small enough that Puts evict entries other goroutines
// are reading: every Get must either miss or return a decodable entry.
func TestConcurrentGetPut(t *testing.T) {
	c, err := Open(Config{Dir: t.TempDir(), MaxEntries: 3, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	type kv struct {
		key   regalloc.CacheKey
		entry *regalloc.CachedAllocation
	}
	var kvs []kv
	for seed := int64(40); seed < 46; seed++ {
		key, entry := testEntry(t, seed)
		kvs = append(kvs, kv{key, entry})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				x := kvs[(g+i)%len(kvs)]
				c.Put(x.key, x.entry)
				if got, ok := c.Get(kvs[(g*3+i)%len(kvs)].key); ok {
					if _, err := irbin.DecodeProgram(got.Frame); err != nil {
						t.Errorf("hit returned an undecodable frame: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 3 {
		t.Errorf("%d entries after concurrent use, want at most 3", st.Entries)
	}
}
