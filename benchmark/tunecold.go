package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"commoverlap/internal/tune"
)

// cheapKernel is the cheapest default kernel (32 cells of a 4-node reduce):
// the tune-cold warm-up and the whole smoke-size search.
var cheapKernel = tune.Kernel{Op: "reduce", Bytes: 64 << 10, Nodes: 4}

// setupTune reads the committed TUNING.json, the reference every search is
// checked against, and runs one warm-up search of the cheapest kernel.
func setupTune(o options) (measureFunc, error) {
	path := filepath.Join(o.root, "TUNING.json")
	refBytes, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ref, err := tune.ReadTable(bytes.NewReader(refBytes))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	workers := runtime.GOMAXPROCS(0)
	warm, err := tune.Search(tune.Options{Grid: tune.QuickGrid(), Kernels: []tune.Kernel{cheapKernel}, Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("warm-up search: %w", err)
	}
	if err := checkTable(warm, ref, nil); err != nil {
		return nil, fmt.Errorf("warm-up search: %w", err)
	}
	kernels, whole := tune.DefaultKernels(), refBytes
	if o.smoke() {
		kernels, whole = []tune.Kernel{cheapKernel}, nil
	}
	return func(budget time.Duration, tr *tracer) (*sample, error) {
		return measureTune(kernels, ref, whole, workers, budget, tr)
	}, nil
}

// measureTune runs cold searches (no warm table, no cache) back to back:
// at least one, and another only while it is expected to fit the budget.
// An op is a cell; its latency is the time from the start of the search to
// the cell's result, as OnCell streams it.
func measureTune(kernels []tune.Kernel, ref *tune.Table, whole []byte, workers int, budget time.Duration, tr *tracer) (*sample, error) {
	s := &sample{}
	var wall, cpu time.Duration
	var tails []float64
	start := time.Now()
	root := tr.id()
	for n, last := 0, time.Duration(0); n == 0 || time.Since(start)+last <= budget; n++ {
		id, group := tr.id(), fmt.Sprintf("search#%d", n)
		var done []time.Duration // OnCell calls are serialized by the search
		t0, c0 := time.Now(), cpuTime()
		t, err := tune.Search(tune.Options{
			Grid:    tune.QuickGrid(),
			Kernels: kernels,
			Workers: workers,
			OnCell: func(string, tune.Cell, int, int) {
				at := time.Now()
				done = append(done, at.Sub(t0))
				tr.instant("cell-done", group, 0, at)
			},
		})
		last = time.Since(t0)
		cpu += cpuTime() - c0
		wall += last
		tr.span(id, root, "search", group, 0, t0, t0.Add(last))
		if err != nil {
			return nil, err
		}
		cells := len(done)
		s.attempted += cells
		for _, d := range done {
			s.lat = append(s.lat, ms(d))
		}
		// The tail starts when fewer cells remain than there are workers.
		if cells >= workers {
			tails = append(tails, (done[cells-1] - done[cells-workers]).Seconds())
		}
		if err := checkTable(t, ref, whole); err != nil {
			s.failed += cells
			logMismatch(group, err.Error(), "TUNING.json")
		}
	}
	tr.span(root, 0, "tune-cold", "", 0, start, time.Now())
	s.rate = float64(s.attempted) / wall.Seconds()
	s.layer = map[string]float64{
		"runner.cpu_util":      cpu.Seconds() / (wall.Seconds() * float64(workers)),
		"tune.cells_per_cpu_s": float64(s.attempted) / cpu.Seconds(),
		"tune.tail_s":          median(tails),
	}
	return s, nil
}

// checkTable compares each searched kernel's entry with the reference
// table's and, when whole holds the reference file's bytes, the full table,
// apart from the Go version that wrote it.
func checkTable(got, ref *tune.Table, whole []byte) error {
	for _, e := range got.Entries {
		want := ref.Lookup(e.Kernel)
		if want == nil {
			return fmt.Errorf("reference has no kernel %s", e.Kernel.Name())
		}
		a, err := json.Marshal(e)
		if err != nil {
			return err
		}
		b, err := json.Marshal(want)
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("kernel %s: entry differs from the reference", e.Kernel.Name())
		}
	}
	if whole == nil {
		return nil
	}
	norm := *got
	norm.GoVersion = ref.GoVersion
	var buf bytes.Buffer
	if err := norm.WriteJSON(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), whole) {
		return errors.New("table bytes differ from the reference")
	}
	return nil
}
