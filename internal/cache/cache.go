// Package cache is the content-addressed result store behind the "never
// simulate the same cell twice" optimization, and the one place that
// decides how a measured cell is reused: a sharded in-memory map from a
// cell's FNV-64a provenance hash (see tune.Params and its cell hashes) to
// the measured bandwidth. Every tuning search runs through a Store; a
// persisted tuning table only seeds one (tune.Table.Seed).
//
// The simulator is fully deterministic — a cell's provenance hash covers
// everything that determines its result (machine calibration, kernel,
// parameters, launch width) — so any two requests with an identical hash
// must produce an identical number, and re-simulating the second one is
// pure waste. The store exploits that at three levels:
//
//   - Lookup: a completed cell is a hash-keyed map read, not a simulation.
//   - Singleflight: concurrent requests for the SAME in-flight cell
//     coalesce onto one simulation; the followers block until the leader
//     publishes, so N clients submitting overlapping grids collectively
//     pay for the union of distinct cells, not the sum.
//   - Bounding: entries are LRU-evicted under a byte budget, and an
//     evicted cell is merely recomputed on its next request — determinism
//     makes eviction a performance event, never a correctness one.
//
// Unlike metrics.Registry and the other virtual-time machinery, a Store is
// safe for real concurrent use: it is shared by the replica-pool workers of
// many jobs at once (the overlapbench server's whole point). Counters are
// atomics; each shard has its own lock, so disjoint hashes rarely contend.
package cache

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"commoverlap/internal/metrics"
)

// shardCount is the number of independently locked shards. A power of two
// so the shard index is a mask; 16 keeps contention negligible for the
// worker counts this repository runs (the pool caps near GOMAXPROCS).
const shardCount = 16

// entryOverhead approximates the per-entry bookkeeping cost charged against
// the byte budget on top of the key bytes: the map cell, the LRU element
// and the entry struct itself.
const entryOverhead = 96

// DefaultMaxBytes is the byte budget New applies when the caller passes a
// non-positive one: 64 MiB holds on the order of a million cells — far more
// than the full tuning grid — while bounding a long-lived server.
const DefaultMaxBytes = 64 << 20

// Store is a sharded, content-addressed, byte-bounded result cache.
// The zero value is not usable; call New.
type Store struct {
	maxPerShard int64
	seed        maphash.Seed
	shards      [shardCount]shard

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
	bytes     atomic.Int64
	entries   atomic.Int64

	// pub serializes Publish and remembers what has already been exported,
	// so repeated Publish calls feed the registry monotone deltas.
	pub       sync.Mutex
	published Stats
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	lru     list.List // front = most recently used; values are *entry
	flights map[string]*flight
	bytes   int64 // running accounted cost of this shard's entries
}

type entry struct {
	key  string
	bw   float64
	elem *list.Element
}

// flight is one in-progress computation: the leader fills bw/err and closes
// done; coalesced followers wait on done and read the outcome.
type flight struct {
	done chan struct{}
	bw   float64
	err  error
}

// New returns an empty store bounded to maxBytes of key+overhead accounting
// (non-positive selects DefaultMaxBytes). The budget is split evenly across
// the shards so eviction never needs more than one lock.
func New(maxBytes int64) *Store {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	s := &Store{
		maxPerShard: maxBytes / shardCount,
		seed:        maphash.MakeSeed(),
	}
	if s.maxPerShard < 1 {
		s.maxPerShard = 1
	}
	for i := range s.shards {
		s.shards[i].entries = make(map[string]*entry)
		s.shards[i].flights = make(map[string]*flight)
	}
	return s
}

func (s *Store) shardFor(key string) *shard {
	return &s.shards[maphash.String(s.seed, key)&(shardCount-1)]
}

func entryCost(key string) int64 { return int64(len(key)) + entryOverhead }

// GetOrCompute returns the value for key, computing it with fn on a miss.
// Concurrent calls for the same missing key coalesce: exactly one runs fn,
// the rest block until it publishes and share the outcome (including an
// error — but an erroring flight is not cached, so the next request retries).
// The returned hit flag is true when the value was served without running
// fn in this call: a cache hit or a coalesced wait on another caller's
// computation.
func (s *Store) GetOrCompute(key string, fn func() (float64, error)) (bw float64, hit bool, err error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.lru.MoveToFront(e.elem)
		sh.mu.Unlock()
		s.hits.Add(1)
		return e.bw, true, nil
	}
	if f, ok := sh.flights[key]; ok {
		sh.mu.Unlock()
		s.coalesced.Add(1)
		<-f.done
		if f.err != nil {
			return 0, true, f.err
		}
		return f.bw, true, nil
	}
	// Miss with no flight: this caller leads.
	f := &flight{done: make(chan struct{})}
	sh.flights[key] = f
	sh.mu.Unlock()
	s.misses.Add(1)

	f.bw, f.err = fn()
	sh.mu.Lock()
	delete(sh.flights, key)
	if f.err == nil {
		s.insertLocked(sh, key, f.bw)
	}
	sh.mu.Unlock()
	close(f.done)
	return f.bw, false, f.err
}

// Put stores a value unconditionally (overwriting any previous one) and
// counts as neither hit nor miss. tune.Table.Seed uses it to load a
// persisted table's cells.
func (s *Store) Put(key string, bw float64) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		e.bw = bw
		sh.lru.MoveToFront(e.elem)
	} else {
		s.insertLocked(sh, key, bw)
	}
	sh.mu.Unlock()
}

// insertLocked adds a new entry and evicts from the shard's LRU tail until
// the shard is back under budget. The caller holds sh.mu.
func (s *Store) insertLocked(sh *shard, key string, bw float64) {
	e := &entry{key: key, bw: bw}
	e.elem = sh.lru.PushFront(e)
	sh.entries[key] = e
	s.entries.Add(1)
	sh.bytes += entryCost(key)
	s.bytes.Add(entryCost(key))
	for sh.bytes > s.maxPerShard {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		sh.lru.Remove(back)
		delete(sh.entries, victim.key)
		s.entries.Add(-1)
		sh.bytes -= entryCost(victim.key)
		s.bytes.Add(-entryCost(victim.key))
		s.evictions.Add(1)
		if victim == e {
			break // a single entry larger than the shard budget evicts itself
		}
	}
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Hits      uint64 // served from a completed entry
	Misses    uint64 // led a computation
	Coalesced uint64 // waited on another caller's in-flight computation
	Evictions uint64 // entries dropped by the LRU byte budget
	Bytes     int64  // accounted bytes currently held
	Entries   int64  // entries currently held
}

// Stats snapshots the counters. The snapshot is not atomic across fields —
// it is diagnostic, not transactional.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Coalesced: s.coalesced.Load(),
		Evictions: s.evictions.Load(),
		Bytes:     s.bytes.Load(),
		Entries:   s.entries.Load(),
	}
}

// Publish exports the counters into a metrics registry as the monotone
// counters cache.hits / cache.misses / cache.coalesced / cache.evictions
// and the gauges cache.bytes / cache.entries. Repeated calls add only the
// change since the previous Publish, so the registry's counters stay
// monotone and its gauges track the store, as long as every call flushes
// into the same registry. The registry itself is not safe for concurrent
// use; Publish serializes against other Publish calls but the caller must
// own the registry.
func (s *Store) Publish(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.pub.Lock()
	defer s.pub.Unlock()
	cur := s.Stats()
	reg.Add("cache.hits", "", float64(cur.Hits-s.published.Hits))
	reg.Add("cache.misses", "", float64(cur.Misses-s.published.Misses))
	reg.Add("cache.coalesced", "", float64(cur.Coalesced-s.published.Coalesced))
	reg.Add("cache.evictions", "", float64(cur.Evictions-s.published.Evictions))
	reg.AddGauge("cache.bytes", "", float64(cur.Bytes-s.published.Bytes))
	reg.AddGauge("cache.entries", "", float64(cur.Entries-s.published.Entries))
	s.published = cur
}
