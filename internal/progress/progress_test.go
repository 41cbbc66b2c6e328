package progress

import "testing"

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"", Spec{}},
		{"off", Spec{}},
		{"rank1", Spec{Mode: Ranks, Ranks: 1}},
		{"rank3", Spec{Mode: Ranks, Ranks: 3}},
		{"dma", Spec{Mode: Offload}},
		{"dma@2.5e+10", Spec{Mode: Offload, Rate: 2.5e10}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, in := range []string{"rank0", "rank-1", "rankx", "dma@", "dma@0", "dma@-5", "bogus", "ppn2"} {
		if sp, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %+v, want error", in, sp)
		}
	}
}

func TestLanesNeeded(t *testing.T) {
	if n := MustParse("rank2").LanesNeeded(); n != 2 {
		t.Errorf("rank2 lanes = %d, want 2", n)
	}
	if n := MustParse("dma").LanesNeeded(); n != 0 {
		t.Errorf("dma lanes = %d, want 0", n)
	}
	if n := MustParse("").LanesNeeded(); n != 0 {
		t.Errorf("off lanes = %d, want 0", n)
	}
}
