package bench

import (
	"io"
	"reflect"
	"testing"
)

// TestNoiseSkewResilience pins the experiment's central claim: as machine
// noise grows, the overlapped cases retain at least as much of their
// clean-machine bandwidth as the blocking case does. The run is
// bit-deterministic (fixed noiseSeed), so these are exact assertions, not
// statistical ones; see noiseSeed's comment for how representative the
// draw is across seeds.
func TestNoiseSkewResilience(t *testing.T) {
	res, err := Noise(io.Discard, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Amps) < 2 || res.Amps[0] != 0 {
		t.Fatalf("amplitude axis %v must start at the clean machine", res.Amps)
	}
	for c := Blocking; c <= MultiPPNOverlap; c++ {
		if got := res.Retention[c][0]; got != 1 {
			t.Errorf("%v: clean-machine retention = %g, want 1", c, got)
		}
	}
	last := len(res.Amps) - 1
	if res.Retention[Blocking][last] >= 1 {
		t.Fatalf("blocking retained %.0f%% at amp %g: noise injected nothing",
			100*res.Retention[Blocking][last], res.Amps[last])
	}
	for i := 1; i < len(res.Amps); i++ {
		rb := res.Retention[Blocking][i]
		if rn := res.Retention[NonblockingOverlap][i]; rn < rb {
			t.Errorf("amp %g: N_DUP overlap retained %.1f%% < blocking's %.1f%%",
				res.Amps[i], 100*rn, 100*rb)
		}
		if rp := res.Retention[MultiPPNOverlap][i]; rp < rb {
			t.Errorf("amp %g: multi-PPN overlap retained %.1f%% < blocking's %.1f%%",
				res.Amps[i], 100*rp, 100*rb)
		}
	}
	// Every case must actually feel the top-amplitude machine.
	for c := Blocking; c <= MultiPPNOverlap; c++ {
		if res.Retention[c][last] >= res.Retention[c][0] {
			t.Errorf("%v: retention did not drop from clean (%.1f%%) to amp %g (%.1f%%)",
				c, 100*res.Retention[c][0], res.Amps[last], 100*res.Retention[c][last])
		}
	}
}

// TestNoiseDeterministic re-measures the experiment and demands identical
// numbers: the whole fault pipeline replays bit-exactly from its seed.
func TestNoiseDeterministic(t *testing.T) {
	a, err := Noise(io.Discard, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Noise(io.Discard, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs of the noise experiment differ:\n%+v\n%+v", a, b)
	}
}
