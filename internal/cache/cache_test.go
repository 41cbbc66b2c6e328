package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"commoverlap/internal/metrics"
)

// cached reports the value stored for key without counting a hit or miss
// or touching the LRU order.
func cached(s *Store, key string) (float64, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return 0, false
	}
	return e.bw, true
}

func TestGetOrComputeBasics(t *testing.T) {
	s := New(0)
	calls := 0
	f := func() (float64, error) { calls++; return 42, nil }

	bw, hit, err := s.GetOrCompute("k1", f)
	if err != nil || hit || bw != 42 || calls != 1 {
		t.Fatalf("cold: bw=%g hit=%v err=%v calls=%d", bw, hit, err, calls)
	}
	bw, hit, err = s.GetOrCompute("k1", f)
	if err != nil || !hit || bw != 42 || calls != 1 {
		t.Fatalf("warm: bw=%g hit=%v err=%v calls=%d", bw, hit, err, calls)
	}
	if bw, ok := cached(s, "k1"); !ok || bw != 42 {
		t.Fatalf("stored value = %g, %v", bw, ok)
	}
	if _, ok := cached(s, "absent"); ok {
		t.Fatal("absent key is stored")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestErrorNotCached: a failing computation is shared with coalesced
// waiters but never stored, so the next request retries.
func TestErrorNotCached(t *testing.T) {
	s := New(0)
	boom := errors.New("boom")
	calls := 0
	if _, _, err := s.GetOrCompute("k", func() (float64, error) { calls++; return 0, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	bw, hit, err := s.GetOrCompute("k", func() (float64, error) { calls++; return 7, nil })
	if err != nil || hit || bw != 7 || calls != 2 {
		t.Fatalf("retry: bw=%g hit=%v err=%v calls=%d", bw, hit, err, calls)
	}
}

// TestSingleflightCoalesces: many concurrent requests for one missing key
// run the computation exactly once; everyone sees the same value.
func TestSingleflightCoalesces(t *testing.T) {
	s := New(0)
	var calls atomic.Int64
	release := make(chan struct{})
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]float64, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bw, _, err := s.GetOrCompute("hot", func() (float64, error) {
				calls.Add(1)
				<-release // hold the flight open so the others pile up
				return 3.25, nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = bw
		}(i)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for i, bw := range results {
		if bw != 3.25 {
			t.Fatalf("goroutine %d got %g", i, bw)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != goroutines-1 {
		t.Fatalf("stats %+v: want 1 miss and %d hits+coalesced", st, goroutines-1)
	}
}

// TestLRUEvictionThenRecompute: under a tiny byte budget old entries are
// evicted, and recomputing an evicted key yields the byte-identical value —
// eviction is a performance event, not a correctness one.
func TestLRUEvictionThenRecompute(t *testing.T) {
	// Budget of ~2 entries per shard; 300 distinct keys must evict.
	s := New(shardCount * 2 * (16 + entryOverhead))
	value := func(i int) float64 { return float64(i) * 1.0625 }
	key := func(i int) string { return fmt.Sprintf("%016x", i) }
	for i := 0; i < 300; i++ {
		if _, _, err := s.GetOrCompute(key(i), func() (float64, error) { return value(i), nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", shardCount*2*(16+entryOverhead), st)
	}
	if st.Bytes > int64(shardCount*2*(16+entryOverhead)) {
		t.Fatalf("bytes %d above budget", st.Bytes)
	}
	// Every key — cached or evicted — recomputes to the identical value.
	for i := 0; i < 300; i++ {
		bw, _, err := s.GetOrCompute(key(i), func() (float64, error) { return value(i), nil })
		if err != nil || bw != value(i) {
			t.Fatalf("key %d: bw=%g err=%v, want %g", i, bw, err, value(i))
		}
	}
}

// TestSingleEntryOverBudget: an entry larger than a shard's whole budget
// inserts and immediately evicts itself without wedging the shard.
func TestSingleEntryOverBudget(t *testing.T) {
	s := New(1) // maxPerShard clamps to 1 byte
	if _, _, err := s.GetOrCompute("key", func() (float64, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Evictions != 1 {
		t.Fatalf("stats %+v: want the oversized entry self-evicted", st)
	}
	if _, ok := cached(s, "key"); ok {
		t.Fatal("oversized entry survived")
	}
}

func TestPutOverwritesAndSeeds(t *testing.T) {
	s := New(0)
	s.Put("k", 1)
	if bw, ok := cached(s, "k"); !ok || bw != 1 {
		t.Fatalf("seeded value = %g, %v", bw, ok)
	}
	s.Put("k", 2)
	if bw, _ := cached(s, "k"); bw != 2 {
		t.Fatalf("overwritten value = %g", bw)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("entries %d after overwrite", st.Entries)
	}
}

// TestPublishDeltas: repeated Publish feeds the registry monotone deltas,
// not cumulative re-adds.
func TestPublishDeltas(t *testing.T) {
	s := New(0)
	reg := &metrics.Registry{}
	one := func() (float64, error) { return 1, nil }
	s.GetOrCompute("a", one)
	s.GetOrCompute("a", one)
	s.Publish(reg)
	if got := reg.Value("cache.hits", ""); got != 1 {
		t.Fatalf("cache.hits = %g after first publish", got)
	}
	s.GetOrCompute("a", one)
	s.Publish(reg)
	if got := reg.Value("cache.hits", ""); got != 2 {
		t.Fatalf("cache.hits = %g after second publish, want 2 (delta, not re-add)", got)
	}
	if got := reg.Value("cache.misses", ""); got != 1 {
		t.Fatalf("cache.misses = %g", got)
	}
	if got := reg.Value("cache.entries", ""); got != 1 {
		t.Fatalf("cache.entries gauge = %g", got)
	}
	s.Publish(nil) // nil registry is a no-op, not a panic
}

// TestConcurrentMixedLoad hammers the store from many goroutines with an
// overlapping key set under -race: the invariant is that every read of a
// key observes that key's one deterministic value.
func TestConcurrentMixedLoad(t *testing.T) {
	s := New(8 << 10) // small enough to force evictions mid-flight
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := i % 37
				want := float64(k) * 2.5
				bw, _, err := s.GetOrCompute(fmt.Sprintf("key-%d", k), func() (float64, error) { return want, nil })
				if err != nil || bw != want {
					t.Errorf("g%d i%d: bw=%g err=%v want %g", g, i, bw, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
