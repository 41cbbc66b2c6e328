package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestMLWorkOverlapWins is the experiment's asserted claim: on every
// ML-training pattern the best overlapped variant strictly beats the
// blocking baseline, and every variant of a pattern produces the identical
// checksum.
func TestMLWorkOverlapWins(t *testing.T) {
	res, err := MLWork(io.Discard, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for pat, blocking := range res.Blocking {
		best, ok := res.Best[pat]
		if !ok {
			t.Fatalf("%s: no overlapped rows", pat)
		}
		if best.Goodput <= blocking.Goodput {
			t.Errorf("%s: best overlapped %s %.0f MB/s does not beat blocking %.0f MB/s",
				pat, best.key(), best.Goodput/1e6, blocking.Goodput/1e6)
		}
		for _, row := range res.Rows {
			if row.Pattern == pat && row.Checksum != blocking.Checksum {
				t.Errorf("%s %s: checksum %016x != blocking %016x",
					pat, row.key(), row.Checksum, blocking.Checksum)
			}
		}
	}
	if len(res.Blocking) != len(mlPatterns) {
		t.Errorf("expected %d patterns, got %d", len(mlPatterns), len(res.Blocking))
	}
}

// TestMLWorkDeterminism: the experiment's CSV must be byte-identical when
// the replica pool runs sequentially and when it runs 8 wide.
func TestMLWorkDeterminism(t *testing.T) {
	runAt := func(workers int) string {
		res, err := MLWork(io.Discard, Options{Workers: workers, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq, par := runAt(1), runAt(8)
	if seq != par {
		t.Errorf("mlwork CSV differs between 1 and 8 workers:\n--- seq\n%s--- par\n%s", seq, par)
	}
	if !strings.HasPrefix(seq, "pattern,variant,ndup,") {
		t.Errorf("unexpected CSV header: %q", seq[:min(len(seq), 60)])
	}
}
