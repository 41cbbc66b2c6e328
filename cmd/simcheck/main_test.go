package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfileFlushOnError: every error exit still writes non-empty
// -cpuprofile and -memprofile files, because each one returns through
// realMain and runs its deferred profile writers.
func TestProfileFlushOnError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	exe := filepath.Join(t.TempDir(), "simcheck")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	for i, c := range []struct {
		name string
		args []string
		code int
		msg  string // expected in the output
	}{
		{"unknown scenario", []string{"-scenario", "bogus"}, 2, "unknown scenario"},
		{"unknown policy", []string{"-policy", "bogus"}, 2, "unknown policy"},
		{"unknown fault profile", []string{"-faults", "bogus"}, 2, "unknown fault profile"},
		{"trace without a single run", []string{"-trace", filepath.Join(dir, "t.json")}, 2, "single-run selection"},
		{"failed trace write", []string{"-scenario", "p2p-burst", "-policy", "fifo",
			"-trace", filepath.Join(dir, "missing", "t.json")}, 1, "simcheck: -trace"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cpu := filepath.Join(dir, fmt.Sprintf("cpu%d.pprof", i))
			mem := filepath.Join(dir, fmt.Sprintf("mem%d.pprof", i))
			args := append([]string{"-cpuprofile", cpu, "-memprofile", mem}, c.args...)
			out, err := exec.Command(exe, args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != c.code {
				t.Fatalf("args %q: got %v, want exit status %d\noutput:\n%s", args, err, c.code, out)
			}
			if !strings.Contains(string(out), c.msg) {
				t.Errorf("args %q: output lacks %q:\n%s", args, c.msg, out)
			}
			for _, p := range []string{cpu, mem} {
				st, err := os.Stat(p)
				if err != nil {
					t.Errorf("profile not written on the error path: %v", err)
				} else if st.Size() == 0 {
					t.Errorf("%s: empty profile, writer not flushed before exit", p)
				}
			}
		})
	}
}
