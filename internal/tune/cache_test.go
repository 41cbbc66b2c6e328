package tune

import (
	"bytes"
	"sync"
	"testing"

	"commoverlap/internal/cache"
)

// TestSearchWithCacheByteIdentityAndWarmRerun is the headline contract of
// the result cache: a cached search emits a table byte-identical to an
// uncached one, and a second identical search against the same store
// re-simulates nothing — every cell is a cache hit — at 1 and at 8
// workers.
func TestSearchWithCacheByteIdentityAndWarmRerun(t *testing.T) {
	plain, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, plain)

	for _, workers := range []int{1, 8} {
		store := cache.New(0)
		cold, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: workers, Cache: store})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(t, cold), want) {
			t.Fatalf("workers=%d: cached cold table differs from uncached table", workers)
		}
		if cached, total := cold.CachedCount(); cached != 0 || total == 0 {
			t.Fatalf("workers=%d: cold search reported %d/%d cached cells", workers, cached, total)
		}
		warm, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: workers, Cache: store})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(t, warm), want) {
			t.Fatalf("workers=%d: warm cached table differs from cold table", workers)
		}
		cached, total := warm.CachedCount()
		if total == 0 || float64(cached) < 0.9*float64(total) {
			t.Fatalf("workers=%d: warm re-run hit %d of %d cells, want >= 90%%", workers, cached, total)
		}
		st := store.Stats()
		if st.Hits == 0 {
			t.Fatalf("workers=%d: store counted no hits: %+v", workers, st)
		}
	}
}

// TestSearchCacheEvictionByteIdentity: a store too small to hold the grid
// keeps evicting, the warm re-run hits only partially, and the table is
// still byte-identical — eviction costs time, never correctness.
func TestSearchCacheEvictionByteIdentity(t *testing.T) {
	store := cache.New(2048) // a handful of 112-byte entries across 16 shards
	cold, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: 4, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if store.Stats().Evictions == 0 {
		t.Fatal("tiny store evicted nothing; budget not exercised")
	}
	rerun, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: 4, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, cold), marshal(t, rerun)) {
		t.Error("table differs after evictions forced recomputation")
	}
	if cached, total := rerun.CachedCount(); cached >= total {
		t.Errorf("re-run hit %d of %d cells despite an undersized store", cached, total)
	}
}

// TestInJobDedup: duplicate cells inside one grid — here the same kernel
// listed twice and a repeated NDup axis value — share one provenance hash,
// so the search's store simulates each distinct cell once: every duplicate
// is a hit on, or a wait for, the first. That holds with a caller's store
// and with the private one a nil Cache selects, and the table is
// byte-identical to what independent simulations produce.
func TestInJobDedup(t *testing.T) {
	k := Kernel{Op: "reduce", Bytes: 1 << 20, Nodes: 4}
	grid := Grid{
		Name:      "dup",
		NDups:     []int{1, 2, 2}, // repeated axis value
		PPNs:      []int{1},
		LaunchPPN: 2,
		Protocols: []Params{{}},
	}
	// 3 cells per kernel x 2 kernels = 6 cases over 2 distinct hashes
	// (ndup 1 and 2), so 4 cases are served without simulating.
	store := cache.New(0)
	tab, err := Search(Options{Grid: grid, Kernels: []Kernel{k, k}, Workers: 4, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if cached, total := tab.CachedCount(); total != 6 || cached != 4 {
		t.Fatalf("caller store: %d of %d cells cached, want 4 of 6", cached, total)
	}
	if st := store.Stats(); st.Misses != 2 {
		t.Fatalf("caller store: %d simulations, want 2: %+v", st.Misses, st)
	}
	private, err := Search(Options{Grid: grid, Kernels: []Kernel{k, k}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cached, total := private.CachedCount(); total != 6 || cached != 4 {
		t.Fatalf("private store: %d of %d cells cached, want 4 of 6", cached, total)
	}
	if !bytes.Equal(marshal(t, tab), marshal(t, private)) {
		t.Error("table differs between a caller's store and the private one")
	}
	// Both entries carry the same cells; the duplicated-axis cell equals
	// its first occurrence.
	e0, e1 := tab.Entries[0], tab.Entries[1]
	if e0.Cells[1].BW != e0.Cells[2].BW || e0.Cells[1].Hash != e0.Cells[2].Hash {
		t.Error("repeated axis value produced different cells")
	}
	if e0.BestBW != e1.BestBW || e0.Best != e1.Best {
		t.Error("duplicate kernels tuned to different winners")
	}

	// The same grid measured without duplicates (one kernel, no repeats)
	// produces the same numbers for the shared cells.
	ref, err := Search(Options{Grid: Grid{Name: "ref", NDups: []int{1, 2}, PPNs: []int{1},
		LaunchPPN: 2, Protocols: []Params{{}}}, Kernels: []Kernel{k}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Entries[0].Cells[0].BW != e0.Cells[0].BW || ref.Entries[0].Cells[1].BW != e0.Cells[1].BW {
		t.Error("deduplicated cells differ from independently measured ones")
	}
}

// TestOnCellStreaming: the OnCell callback sees every cell exactly once
// with a monotone done counter that ends at the total, at any worker count.
func TestOnCellStreaming(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var mu sync.Mutex
		var got []Cell
		lastDone := 0
		monotone := true
		tab, err := Search(Options{
			Grid: testGrid(), Kernels: testKernels(), Workers: workers,
			OnCell: func(kernel string, c Cell, done, total int) {
				mu.Lock()
				defer mu.Unlock()
				if kernel == "" || done != lastDone+1 || total <= 0 {
					monotone = false
				}
				lastDone = done
				got = append(got, c)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, total := tab.CachedCount()
		if len(got) != total {
			t.Fatalf("workers=%d: OnCell saw %d cells, table has %d", workers, len(got), total)
		}
		if !monotone || lastDone != total {
			t.Fatalf("workers=%d: done counter not monotone to total (last=%d total=%d)", workers, lastDone, total)
		}
	}
}

// TestMeasureCached: the hit flag distinguishes simulation from lookup, and
// invalid cells are rejected before the store is touched.
func TestMeasureCached(t *testing.T) {
	k := Kernel{Op: "reduce", Bytes: 1 << 20, Nodes: 4}
	p := Params{NDup: 2, PPN: 1}
	store := cache.New(0)
	bw1, hit, err := MeasureCached(store, k, p, 4)
	if err != nil || hit || bw1 <= 0 {
		t.Fatalf("cold: bw=%g hit=%v err=%v", bw1, hit, err)
	}
	bw2, hit, err := MeasureCached(store, k, p, 4)
	if err != nil || !hit || bw2 != bw1 {
		t.Fatalf("warm: bw=%g hit=%v err=%v want bw=%g", bw2, hit, err, bw1)
	}
	if _, _, err := MeasureCached(store, Kernel{Op: "gather", Bytes: 1, Nodes: 2}, p, 4); err == nil {
		t.Error("invalid kernel accepted")
	}
	if _, _, err := MeasureCached(store, k, Params{NDup: 0, PPN: 1}, 4); err == nil {
		t.Error("invalid params accepted")
	}
}
