package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"commoverlap/internal/bench"
)

// buildCLI builds the overlapbench binary once per test binary into a
// temporary directory and returns its path.
func buildCLI(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "overlapbench")
	cmd := exec.Command("go", "build", "-o", exe, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}

// TestCLIArgValidation is the table-driven argument-handling test: unknown
// experiment names, unknown subcommands and trailing junk must exit
// non-zero with a usage message instead of silently running the default
// path, while valid invocations keep exiting zero.
func TestCLIArgValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	exe := buildCLI(t)
	csvDir := t.TempDir()
	cases := []struct {
		name     string
		args     []string
		wantOK   bool
		wantCode int    // exit status to require; 0 checks only wantOK
		wantOut  string // substring of combined output
		wantFile string // file that must exist afterwards
	}{
		{name: "unknown experiment", args: []string{"bogus"}, wantCode: 2,
			wantOut: `unknown experiment or subcommand "bogus"`},
		{name: "typo of known experiment", args: []string{"fig33"}, wantCode: 2,
			wantOut: "usage: overlapbench"},
		{name: "trailing junk after experiment", args: []string{"fig4", "extraneous"}, wantCode: 2,
			wantOut: `unknown experiment or subcommand "extraneous"`},
		{name: "tune trailing junk", args: []string{"tune", "-quick", "junk"},
			wantOut: "usage: overlapbench tune"},
		{name: "mlwork trailing junk", args: []string{"mlwork", "extra"}, wantCode: 2,
			wantOut: "usage: overlapbench"},
		{name: "mlwork unknown flag", args: []string{"-frobnicate", "mlwork"}, wantCode: 2,
			wantOut: "flag provided but not defined"},
		{name: "bench-host is unknown", args: []string{"bench-host"}, wantCode: 2,
			wantOut: `unknown experiment or subcommand "bench-host"`},
		{name: "bench-diff is unknown", args: []string{"bench-diff", "a.json", "b.json"}, wantCode: 2,
			wantOut: `unknown experiment or subcommand "bench-diff"`},
		{name: "valid experiment", args: []string{"fig4"},
			wantOK: true, wantOut: "fig4 regenerated"},
		{name: "mlwork quick with csv", args: []string{"-quick", "-csv", csvDir, "mlwork"},
			wantOK: true, wantOut: "ML-workload patterns",
			wantFile: filepath.Join(csvDir, "mlwork.csv")},
		{name: "progress trailing junk", args: []string{"-quick", "progress", "extra"}, wantCode: 2,
			wantOut: "usage: overlapbench"},
		{name: "progress unknown flag", args: []string{"-frobnicate", "progress"}, wantCode: 2,
			wantOut: "flag provided but not defined"},
		{name: "flag after experiment name", args: []string{"progress", "-quick"}, wantCode: 2,
			wantOut: `unknown experiment or subcommand "-quick"`},
		{name: "progress quick with csv", args: []string{"-quick", "-csv", csvDir, "progress"},
			wantOK: true, wantOut: "progress/ppn",
			wantFile: filepath.Join(csvDir, "progress.csv")},
		{name: "serve trailing junk", args: []string{"serve", "junk"},
			wantOut: "usage: overlapbench serve"},
		{name: "serve unknown flag", args: []string{"serve", "-frobnicate"},
			wantOut: "flag provided but not defined"},
		{name: "loadbench is unknown", args: []string{"loadbench"}, wantCode: 2,
			wantOut: `unknown experiment or subcommand "loadbench"`},
		{name: "tune cache flag is unknown", args: []string{"tune", "-cache"},
			wantOut: "flag provided but not defined"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(exe, tc.args...)
			out, err := cmd.CombinedOutput()
			if ok := err == nil; ok != tc.wantOK {
				t.Fatalf("args %q: exit ok=%v, want %v\noutput:\n%s", tc.args, ok, tc.wantOK, out)
			}
			if code := cmd.ProcessState.ExitCode(); tc.wantCode != 0 && code != tc.wantCode {
				t.Errorf("args %q: exit status %d, want %d", tc.args, code, tc.wantCode)
			}
			if !strings.Contains(string(out), tc.wantOut) {
				t.Errorf("args %q: output missing %q:\n%s", tc.args, tc.wantOut, out)
			}
			if tc.wantFile != "" {
				if _, err := os.Stat(tc.wantFile); err != nil {
					t.Errorf("args %q: expected artifact: %v", tc.args, err)
				}
			}
		})
	}
}

// TestProfileFlushOnError pins the profile-flag contract: when an
// invocation fails, -cpuprofile and -memprofile must still be flushed —
// one profiles exactly the runs that misbehave, so an error path that
// os.Exits past the profile writers drops the evidence. Every failure now
// returns through realMain, whose defers stop the CPU profile and write
// the heap profile before the process exits non-zero.
func TestProfileFlushOnError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	exe := buildCLI(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	args := []string{
		"-cpuprofile", cpu, "-memprofile", mem,
		"-table", filepath.Join(dir, "missing.json"), "tuned",
	}
	out, err := exec.Command(exe, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("args %q: want non-zero exit for a missing tuning table\noutput:\n%s", args, out)
	}
	if !strings.Contains(string(out), "tuned:") {
		t.Errorf("args %q: output missing the tuned error:\n%s", args, out)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile not written on the error path: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s: empty profile — writer not flushed before exit", p)
		}
	}
}

// TestExperimentRegistry: registry names are unique and never shadow
// "all", and every experiment is accepted by name and listed in the usage
// text, so the registry is the one list of experiments the CLI knows.
func TestExperimentRegistry(t *testing.T) {
	var sb strings.Builder
	usage(&sb)
	fields := strings.Fields(sb.String())
	seen := map[string]bool{}
	for _, e := range bench.Experiments {
		if e.Name == "" || e.Name == "all" || e.Run == nil || seen[e.Name] {
			t.Errorf("malformed or duplicate registry entry %q", e.Name)
		}
		seen[e.Name] = true
		if sel, err := selectExperiments([]string{e.Name}); err != nil || len(sel) != 1 || sel[0].Name != e.Name {
			t.Errorf("%s: selected %v, %v", e.Name, sel, err)
		}
		if !slices.Contains(fields, e.Name) {
			t.Errorf("%s missing from usage:\n%s", e.Name, sb.String())
		}
	}
	all, err := selectExperiments(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all {
		if e.Named {
			t.Errorf("default run includes by-name-only %s", e.Name)
		}
	}
}
