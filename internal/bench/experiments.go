package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"commoverlap/internal/tune"
)

// Experiment is one entry of the evaluation: Run writes the paper-style
// table to w and returns the writer of the experiment's CSV artifact, or
// nil when it has none.
type Experiment struct {
	Name string
	// Named experiments run only when asked for by name; "all" skips them.
	Named bool
	Run   func(w io.Writer, o Options) (csv func(io.Writer) error, err error)
}

// Experiments is the evaluation in run order: the paper's figures and
// tables, then this reproduction's extensions.
var Experiments = []Experiment{
	{Name: "fig3", Run: withCSV(Fig3)},
	{Name: "fig4", Run: func(w io.Writer, _ Options) (func(io.Writer) error, error) {
		Fig4(w)
		return nil, nil
	}},
	{Name: "fig5", Run: withCSV(Fig5)},
	{Name: "fig6", Run: func(w io.Writer, o Options) (func(io.Writer) error, error) {
		res, err := Fig6(w, o)
		if err == nil && o.TracePath != "" {
			if err = WriteFile(o.TracePath, res.WriteChromeTrace); err == nil {
				fprintf(w, "  [wrote Chrome trace %s]\n", o.TracePath)
			}
		}
		return res.WriteCSV, err
	}},
	{Name: "table1", Run: rowsCSV(func(w io.Writer, o Options) ([]Table1Row, error) {
		return Table1(w, o, o.systems())
	}, Table1CSV)},
	{Name: "table2", Run: rowsCSV(func(w io.Writer, o Options) ([]Table2Row, error) {
		return Table2(w, o, o.systems())
	}, Table2CSV)},
	{Name: "table3", Run: rowsCSV(Table3, Table3CSV)},
	{Name: "table4", Run: rowsCSV(Table4, Table4CSV)},
	{Name: "table5", Run: rowsCSV(Table5, Table5CSV)},
	{Name: "solver", Run: noCSV(Solver)},
	{Name: "algos", Run: noCSV(Algos)},
	{Name: "ablate", Run: noCSV(Ablate)},
	{Name: "sparse", Run: noCSV(Sparse)},
	{Name: "scaling", Run: noCSV(Scaling)},
	{Name: "topo", Run: withCSV(Topo)},
	{Name: "paperscale", Run: withCSV(PaperScale)},
	{Name: "paperscale-tuned", Named: true, Run: withCSV(func(w io.Writer, o Options) (PaperScaleResult, error) {
		table, err := loadTable(o.TablePath)
		if err != nil {
			return PaperScaleResult{}, err
		}
		return PaperScaleTuned(w, o, table)
	})},
	{Name: "tuned", Named: true, Run: withCSV(func(w io.Writer, o Options) (TunedResult, error) {
		table, err := loadTable(o.TablePath)
		if err != nil {
			return TunedResult{}, err
		}
		return Tuned(w, o, table)
	})},
	{Name: "noise", Run: withCSV(Noise)},
	{Name: "mlwork", Named: true, Run: withCSV(MLWork)},
	{Name: "progress", Named: true, Run: withCSV(ProgressBench)},
	// report re-runs the whole evaluation and checks every claim.
	{Name: "report", Named: true, Run: func(w io.Writer, o Options) (func(io.Writer) error, error) {
		_, failures, err := Report(w, o)
		if err == nil && failures > 0 {
			err = fmt.Errorf("%d claims failed", failures)
		}
		return nil, err
	}},
}

// withCSV adapts an experiment whose result writes its own CSV.
func withCSV[R interface{ WriteCSV(io.Writer) error }](run func(io.Writer, Options) (R, error)) func(io.Writer, Options) (func(io.Writer) error, error) {
	return func(w io.Writer, o Options) (func(io.Writer) error, error) {
		res, err := run(w, o)
		return res.WriteCSV, err
	}
}

// rowsCSV adapts a table experiment and the writer of its rows' CSV.
func rowsCSV[R any](run func(io.Writer, Options) ([]R, error), csv func(io.Writer, []R) error) func(io.Writer, Options) (func(io.Writer) error, error) {
	return func(w io.Writer, o Options) (func(io.Writer) error, error) {
		rows, err := run(w, o)
		return func(f io.Writer) error { return csv(f, rows) }, err
	}
}

// noCSV adapts an experiment without a CSV artifact.
func noCSV[R any](run func(io.Writer, Options) (R, error)) func(io.Writer, Options) (func(io.Writer) error, error) {
	return func(w io.Writer, o Options) (func(io.Writer) error, error) {
		_, err := run(w, o)
		return nil, err
	}
}

// loadTable reads the tuning table the tuned experiments apply.
func loadTable(path string) (*tune.Table, error) {
	table, err := tune.LoadTable(path)
	if err != nil {
		return nil, fmt.Errorf("%w (generate one with `overlapbench tune -quick`)", err)
	}
	return table, nil
}

// WriteFile streams write into path through a buffered writer and
// propagates every failure — including Flush and Close errors, which is
// where a full disk actually surfaces — instead of dropping them in a
// deferred Close.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
