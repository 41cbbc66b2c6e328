package workload

import (
	"fmt"
	"testing"

	"commoverlap/internal/mpi"
	"commoverlap/internal/runner"
)

// smallSpec is a quick variant of a pattern sized to run in milliseconds.
func smallSpec(pat Pattern, overlap bool) Spec {
	return Spec{
		Pattern:   pat,
		Nodes:     4,
		LaunchPPN: 2,
		NDup:      2,
		Units:     3,
		Elems:     3000,
		Overlap:   overlap,
	}
}

// allPatterns is the pattern family in canonical order.
var allPatterns = []Pattern{DataParallel, ZeRO, Pipeline}

// TestPatternsOracle runs every pattern in both variants: the per-rank
// oracles inside the pattern bodies must pass (Run returns their first
// failure), and the blocking and overlapped schedules must produce
// byte-identical checksums — overlap is a schedule change, not a
// semantics change. Cases fan through the replica runner so `go test
// -race` exercises concurrent independent worlds.
func TestPatternsOracle(t *testing.T) {
	pats := allPatterns
	res, err := runner.Map(2*len(pats), 4, func(i int) (Result, error) {
		return Run(smallSpec(pats[i/2], i%2 == 1))
	})
	if err != nil {
		t.Fatal(err)
	}
	for pi, pat := range pats {
		blocking, overlapped := res[2*pi], res[2*pi+1]
		if blocking.Checksum != overlapped.Checksum {
			t.Errorf("%s: blocking checksum %016x != overlapped %016x",
				pat, blocking.Checksum, overlapped.Checksum)
		}
		if blocking.Elapsed <= 0 || overlapped.Elapsed <= 0 {
			t.Errorf("%s: non-positive elapsed (blocking %g, overlapped %g)",
				pat, blocking.Elapsed, overlapped.Elapsed)
		}
	}
}

// TestRunDeterminism: the same spec must produce bit-identical results
// across repeated runs and regardless of what else runs concurrently.
func TestRunDeterminism(t *testing.T) {
	spec := smallSpec(ZeRO, true)
	first, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Errorf("repeat run differs: %+v vs %+v", first, again)
	}
}

// TestParkedPPN: with PPN below the launch width the surplus ranks park,
// and the active sub-communicator's result is still exact (the oracle
// inside the body uses the active size).
func TestParkedPPN(t *testing.T) {
	for _, pat := range allPatterns {
		spec := smallSpec(pat, true)
		spec.PPN = 1 // half the launched ranks park
		if _, err := Run(spec); err != nil {
			t.Errorf("%s parked: %v", pat, err)
		}
	}
}

// TestHierFabric runs every pattern on the hierarchical fabric so the
// NVLink-flavored preset's inter-node traffic crosses shared uplinks.
func TestHierFabric(t *testing.T) {
	for _, pat := range allPatterns {
		spec := smallSpec(pat, true)
		spec.Topo = "hier"
		if _, err := Run(spec); err != nil {
			t.Errorf("%s hier: %v", pat, err)
		}
	}
}

// TestForcedAlg: the data-parallel pattern honors a forced allreduce
// algorithm (the axis the tuner sweeps) with an unchanged checksum.
func TestForcedAlg(t *testing.T) {
	base := smallSpec(DataParallel, true)
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	forced := base
	forced.Alg = mpi.AlgRing
	got, err := Run(forced)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum != ref.Checksum {
		t.Errorf("forced ring checksum %016x != auto %016x", got.Checksum, ref.Checksum)
	}
}

// TestPhantomCongruent is the exactness check behind the tuner's size-only
// cells: over every pattern, blocking and overlapped, on the flat, hier
// and torus fabrics, at PPN 1 and 2, with an element count that splits
// unevenly across ranks, shards and chunks, a unit past the eager limit and
// the chunk size, every forced allreduce algorithm (dp) and both progress
// engines, the phantom run's Elapsed and Bytes equal the real run's bit for
// bit. The real runs must still pass their oracles, and the phantom runs
// report Checksum 0.
func TestPhantomCongruent(t *testing.T) {
	var specs []Spec
	for _, pat := range allPatterns {
		for _, overlap := range []bool{false, true} {
			base := smallSpec(pat, overlap)
			base.Elems = 3001
			for _, topo := range []string{"flat", "hier", "torus"} {
				for _, ppn := range []int{1, 2} {
					s := base
					s.Topo, s.PPN = topo, ppn
					specs = append(specs, s)
				}
			}
			rank, dma := base, base
			rank.Progress, rank.PPN = "rank1", 1 // the agent takes lane 1
			dma.Progress = "dma"
			big := base
			big.Elems = 1<<17 + 1 // past the eager limit and one 1 MiB chunk
			specs = append(specs, rank, dma, big)
			if pat == DataParallel {
				for _, alg := range mpi.AllreduceAlgs() {
					s := base
					s.Alg = alg
					specs = append(specs, s)
				}
			}
		}
	}
	res, err := runner.Map(2*len(specs), 4, func(i int) (Result, error) {
		s := specs[i/2]
		s.Phantom = i%2 == 1
		r, err := Run(s)
		if err != nil {
			return r, fmt.Errorf("%+v: %w", s, err)
		}
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		real, phantom := res[2*i], res[2*i+1]
		if phantom.Elapsed != real.Elapsed || phantom.Bytes != real.Bytes {
			t.Errorf("%+v: phantom elapsed %v bytes %d, real elapsed %v bytes %d",
				s, phantom.Elapsed, phantom.Bytes, real.Elapsed, real.Bytes)
		}
		if phantom.Checksum != 0 {
			t.Errorf("%+v: phantom checksum %016x, want 0", s, phantom.Checksum)
		}
	}
}

// TestSpecValidation: malformed specs fail fast.
func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Pattern: "sgd", Nodes: 2},
		{Pattern: DataParallel, Nodes: 0},
		{Pattern: ZeRO, Nodes: 2, LaunchPPN: 1, PPN: 2},
	}
	for _, s := range bad {
		if _, err := Run(s); err == nil {
			t.Errorf("spec %+v: expected error", s)
		}
	}
}
