package bench

import (
	"fmt"
	"io"

	"commoverlap/internal/cache"
	"commoverlap/internal/tune"
)

// The tuned-vs-fixed experiment: the auto-tuner's central claim is the
// paper's Section III-B one — no single (N_DUP, PPN) serves every kernel,
// so picking them per kernel from a tuning table beats the best fixed
// choice. This experiment re-measures every kernel of a table under (a)
// blocking collectives, (b) every fixed (N_DUP, PPN) of the table's grid
// applied uniformly, and (c) the table's per-kernel winners, and compares
// the workload's total communication time. Every cell is a fresh replica
// fanned through the pool; the result is byte-identical at any width.

// TunedStrategy is one parameter-choice policy evaluated over the workload.
type TunedStrategy struct {
	Name   string        `json:"name"`
	Params []tune.Params `json:"params"` // per kernel, same order as Kernels
	Times  []float64     `json:"times"`  // per kernel, virtual seconds
	Total  float64       `json:"total"`  // sum over kernels
}

// TunedResult holds the comparison.
type TunedResult struct {
	Kernels   []tune.Kernel   `json:"kernels"`
	Blocking  TunedStrategy   `json:"blocking"`
	Fixed     []TunedStrategy `json:"fixed"`
	BestFixed int             `json:"best_fixed"` // index into Fixed
	Tuned     TunedStrategy   `json:"tuned"`
}

// Tuned runs the tuned-vs-fixed comparison over the table's kernels.
func Tuned(w io.Writer, o Options, table *tune.Table) (TunedResult, error) {
	var res TunedResult
	if len(table.Entries) == 0 {
		return res, fmt.Errorf("bench: empty tuning table")
	}
	launch := table.Grid.LaunchPPN
	for _, e := range table.Entries {
		res.Kernels = append(res.Kernels, e.Kernel)
	}

	// Strategies: blocking, one per fixed (ndup, ppn) of the grid with the
	// calibrated protocol, then the per-kernel winners.
	var strategies []TunedStrategy
	strategies = append(strategies, uniform("blocking", tune.Params{NDup: 1, PPN: 1}, len(res.Kernels)))
	for _, ndup := range table.Grid.NDups {
		for _, ppn := range table.Grid.PPNs {
			strategies = append(strategies,
				uniform(fmt.Sprintf("fixed ndup=%d ppn=%d", ndup, ppn),
					tune.Params{NDup: ndup, PPN: ppn}, len(res.Kernels)))
		}
	}
	tuned := TunedStrategy{Name: "per-kernel tuned"}
	for _, e := range table.Entries {
		tuned.Params = append(tuned.Params, e.Best)
	}
	strategies = append(strategies, tuned)

	// Every (strategy, kernel) cell is an independent replica.
	nk := len(res.Kernels)
	times, err := parcases(o, len(strategies)*nk, func(i int) (float64, error) {
		s, k := strategies[i/nk], res.Kernels[i%nk]
		// Strategies repeat cells — "blocking" is the fixed ndup=1/ppn=1
		// grid point, and the per-kernel winner usually matches one of the
		// fixed cells — so the shared result cache pays for each distinct
		// (kernel, params) once.
		bw, _, err := tune.MeasureCached(cache.Shared(), k, s.Params[i%nk], launch)
		if err != nil {
			return 0, err
		}
		vol := 2 * float64(k.Nodes-1) / float64(k.Nodes) * float64(k.Bytes)
		return vol / bw, nil
	})
	if err != nil {
		return res, err
	}
	for si := range strategies {
		s := &strategies[si]
		s.Times = times[si*nk : (si+1)*nk]
		for _, t := range s.Times {
			s.Total += t
		}
	}
	res.Blocking = strategies[0]
	res.Fixed = strategies[1 : len(strategies)-1]
	res.Tuned = strategies[len(strategies)-1]
	for i, s := range res.Fixed {
		if s.Total < res.Fixed[res.BestFixed].Total {
			res.BestFixed = i
		}
	}

	fprintf(w, "Tuned vs fixed overlap parameters (%s grid, launch PPN %d)\n", table.Grid.Name, launch)
	fprintf(w, "workload: ")
	for i, k := range res.Kernels {
		if i > 0 {
			fprintf(w, ", ")
		}
		fprintf(w, "%s", k.Name())
	}
	fprintf(w, "\n\n%-24s %12s %10s\n", "strategy", "total (ms)", "vs tuned")
	show := func(s TunedStrategy) {
		fprintf(w, "%-24s %12.3f %9.2fx\n", s.Name, 1e3*s.Total, s.Total/res.Tuned.Total)
	}
	show(res.Blocking)
	for _, s := range res.Fixed {
		show(s)
	}
	show(res.Tuned)
	fprintf(w, "\nper-kernel choices (tuned):\n")
	for i, k := range res.Kernels {
		p := res.Tuned.Params[i]
		fprintf(w, "  %-20s ndup=%d ppn=%d  %8.3f ms\n", k.Name(), p.NDup, p.PPN, 1e3*res.Tuned.Times[i])
	}
	return res, nil
}

func uniform(name string, p tune.Params, n int) TunedStrategy {
	s := TunedStrategy{Name: name}
	for i := 0; i < n; i++ {
		s.Params = append(s.Params, p)
	}
	return s
}

// WriteCSV emits one row per (strategy, kernel) cell.
func (r TunedResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "strategy,kernel,ndup,ppn,seconds"); err != nil {
		return err
	}
	row := func(s TunedStrategy) error {
		for i, k := range r.Kernels {
			p := s.Params[i]
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%.9f\n", s.Name, k.Name(), p.NDup, p.PPN, s.Times[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := row(r.Blocking); err != nil {
		return err
	}
	for _, s := range r.Fixed {
		if err := row(s); err != nil {
			return err
		}
	}
	return row(r.Tuned)
}
