package check

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var flagUpdate = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from a fresh run")

const fingerprintsGolden = "testdata/fingerprints.golden"

// fingerprints renders the schedule fingerprint of every catalog run at five
// seeds, clean and then under each fault profile: one line per (scenario,
// fault profile, policy, seed) with its event count, message count and final
// virtual time to full precision. Any change to the event order, the events
// scheduled or the virtual times they carry shows up here.
func fingerprints() string {
	var sb strings.Builder
	report := func(r Result) {
		profile := r.Profile
		if profile == "" {
			profile = "-"
		}
		fmt.Fprintf(&sb, "%s %s %s %d events=%d msgs=%d t=%.17g\n",
			r.Scenario, profile, r.Policy, r.Seed, r.Events, r.Messages, r.FinalTime)
	}
	Explore(Catalog(), Policies(), 5, 1, 0, report)
	ExploreFaults(Catalog(), FaultProfiles(), Policies(), 5, 1, 0, report)
	return sb.String()
}

// TestScheduleFingerprints compares a fresh exploration against the committed
// fingerprints. Engine and fabric changes that claim to leave every schedule
// untouched must pass it unchanged; a deliberate model change regenerates the
// file with -update.
func TestScheduleFingerprints(t *testing.T) {
	got := fingerprints()
	if *flagUpdate {
		if err := os.WriteFile(fingerprintsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Errorf("%d fingerprint lines, golden has %d", len(gl)-1, len(wl)-1)
	}
	bad := 0
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
	}
	t.Errorf("%d fingerprint lines differ from %s", bad, fingerprintsGolden)
}
