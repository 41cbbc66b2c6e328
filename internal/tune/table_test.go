package tune

import (
	"bytes"
	"strings"
	"testing"

	"commoverlap/internal/cache"
	"commoverlap/internal/mpi"
)

// TestLookupMissingAxis: tables that omit the optional axis fields decode
// with those fields at their zero values ("" = flat fabric, auto algorithm,
// progress engine off) and stay addressable by both Lookup and Nearest.
func TestLookupMissingAxis(t *testing.T) {
	const oldSchema = `{
  "version": 2,
  "grid": {"name": "quick", "ndups": [1], "ppns": [1], "launch_ppn": 1,
           "protocols": [{"ndup": 0, "ppn": 0}]},
  "seed": 0, "config_hash": "x", "go_version": "go0",
  "entries": [
    {"kernel": {"op": "reduce", "bytes": 1048576, "nodes": 4},
     "best": {"ndup": 2, "ppn": 1},
     "best_bw": 1e9,
     "cells": [{"params": {"ndup": 2, "ppn": 1}, "bw": 1e9, "hash": "deadbeef"}]}
  ]
}`
	tab, err := ReadTable(strings.NewReader(oldSchema))
	if err != nil {
		t.Fatal(err)
	}
	flat := Kernel{Op: "reduce", Bytes: 1 << 20, Nodes: 4}
	if e := tab.Lookup(flat); e == nil || e.Kernel.Topo != "" || e.Best.Alg != "" {
		t.Fatalf("Lookup(%v) = %+v, want flat/auto entry", flat, e)
	}
	if e := tab.Lookup(Kernel{Op: "reduce", Bytes: 1 << 20, Nodes: 4, Topo: "hier"}); e != nil {
		t.Error("Lookup matched a flat entry for a hier kernel")
	}
	// Nearest for an untabulated fabric degrades to the flat entry rather
	// than failing: the penalty orders entries, it does not filter them.
	if e := tab.Nearest("reduce", 1<<20, 4, "hier"); e == nil || e.Kernel != flat {
		t.Errorf("Nearest(hier) = %+v, want flat fallback", e)
	}
}

// TestWarmStartOlderSchema: seeding from a pre-topology-axis table is safe
// — its cell hashes were minted under the old label format, so nothing
// matches, every cell is re-measured, and the result is byte-identical to a
// cold search.
func TestWarmStartOlderSchema(t *testing.T) {
	old := &Table{
		Version: TableVersion,
		Entries: []Entry{{
			Kernel: Kernel{Op: "reduce", Bytes: 1 << 20, Nodes: 4},
			Cells: []Cell{
				// Hash minted before alg= joined the label; bogus bandwidth
				// would poison the table if it were ever reused.
				{Params: Params{NDup: 1, PPN: 1}, BW: 1e42, Hash: "0123456789abcdef"},
			},
		}},
	}
	opts := Options{Grid: testGrid(), Kernels: testKernels(), Workers: 2}
	cold, err := Search(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = cache.New(0)
	old.Seed(opts.Cache)
	warm, err := Search(opts)
	if err != nil {
		t.Fatal(err)
	}
	if c, n := warm.CachedCount(); c != 0 || opts.Cache.Stats().Misses != uint64(n) {
		t.Errorf("%d cells reused from an incompatible-schema table", c)
	}
	if !bytes.Equal(marshal(t, cold), marshal(t, warm)) {
		t.Error("old-schema seed changed the table")
	}
}

// TestNearestTieBreak: on exactly equal distances the earlier entry wins, so
// table order is the canonical tie-break; the topology mismatch penalty
// outweighs substantial shape distance.
func TestNearestTieBreak(t *testing.T) {
	tab := &Table{
		Version: TableVersion,
		Entries: []Entry{
			{Kernel: Kernel{Op: "reduce", Bytes: 1 << 20, Nodes: 4}},
			{Kernel: Kernel{Op: "reduce", Bytes: 4 << 20, Nodes: 4}},
		},
	}
	// 2 MiB is exactly one binary order from both entries: first wins.
	if e := tab.Nearest("reduce", 2<<20, 4, ""); e == nil || e.Kernel != tab.Entries[0].Kernel {
		t.Errorf("tie broke to %+v, want the earlier entry", e)
	}
	// Reversed order, same query: the (now earlier) 4 MiB entry wins.
	rev := &Table{Version: TableVersion, Entries: []Entry{tab.Entries[1], tab.Entries[0]}}
	if e := rev.Nearest("reduce", 2<<20, 4, ""); e == nil || e.Kernel != rev.Entries[0].Kernel {
		t.Errorf("reversed tie broke to %+v, want the earlier entry", e)
	}

	// A same-topology entry four binary orders away still beats a
	// wrong-topology entry of the exact shape (penalty 8 > distance 4).
	mixed := &Table{
		Version: TableVersion,
		Entries: []Entry{
			{Kernel: Kernel{Op: "allreduce", Bytes: 16 << 20, Nodes: 64, Topo: "hier"}},
			{Kernel: Kernel{Op: "allreduce", Bytes: 4 << 20, Nodes: 16}},
		},
	}
	if e := mixed.Nearest("allreduce", 16<<20, 64, ""); e == nil || e.Kernel.Topo != "" {
		t.Errorf("flat query resolved to %+v, want the flat entry", e)
	}
	if e := mixed.Nearest("allreduce", 4<<20, 16, "hier"); e == nil || e.Kernel.Topo != "hier" {
		t.Errorf("hier query resolved to %+v, want the hier entry", e)
	}
}

// TestGridAlgAxis: the algorithm axis is filtered per operation (one list
// can mix families), deduplicated, and a forced algorithm drops the
// switch-point-only protocol variants that cannot affect it.
func TestGridAlgAxis(t *testing.T) {
	g := Grid{
		Name:      "algs",
		NDups:     []int{1},
		PPNs:      []int{1},
		LaunchPPN: 1,
		Protocols: []Params{{}, {ReduceLongMsg: 1 << 30}, {ChunkBytes: 64 << 10}},
		Algs:      []string{mpi.AlgAuto, mpi.AlgRing, mpi.AlgBinomial, mpi.AlgBinomial},
	}
	algsOf := func(k Kernel) map[string]int {
		out := make(map[string]int)
		for _, c := range cellsOf(g, k.Op) {
			out[c.Alg]++
		}
		return out
	}
	// Allreduce: auto sweeps all 3 protocols, ring skips the switch-point
	// variant; binomial is not an allreduce algorithm.
	if got := algsOf(Kernel{Op: "allreduce", Bytes: 1 << 20, Nodes: 4}); got[mpi.AlgAuto] != 3 || got[mpi.AlgRing] != 2 || len(got) != 2 {
		t.Errorf("allreduce alg cells = %v", got)
	}
	// Bcast: the reduce switch-point variant never applies; the duplicated
	// binomial entry sweeps once.
	if got := algsOf(Kernel{Op: "bcast", Bytes: 1 << 20, Nodes: 4}); got[mpi.AlgAuto] != 2 || got[mpi.AlgBinomial] != 2 || len(got) != 2 {
		t.Errorf("bcast alg cells = %v", got)
	}
}

// TestMeasureTopologyAlg: Measure supports the allreduce op on a named
// topology with a forced algorithm, and rejects unknown topology names.
func TestMeasureTopologyAlg(t *testing.T) {
	k := Kernel{Op: "allreduce", Bytes: 1 << 20, Nodes: 4, Topo: "hier"}
	bw, err := Measure(k, Params{NDup: 2, PPN: 1, Alg: mpi.AlgRing}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bw <= 0 {
		t.Errorf("bandwidth %g", bw)
	}
	k.Topo = "mesh-of-trees"
	if _, err := Measure(k, Params{NDup: 1, PPN: 1}, 1); err == nil {
		t.Error("unknown topology accepted")
	}
}
