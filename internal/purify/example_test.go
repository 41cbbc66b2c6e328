package purify_test

import (
	"fmt"

	"commoverlap/internal/mat"
	"commoverlap/internal/purify"
	"commoverlap/internal/sparse"
)

// Serial purification turns a Hamiltonian into an idempotent density
// matrix with the requested electron count.
func ExampleSerial() {
	f := mat.BandedHamiltonian(16, 4)
	d, st, err := purify.Serial(f, purify.Options{Ne: 4})
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged=%v trace=%.1f\n", st.Converged, d.Trace())
	// D is a projector: D^2 == D.
	d2 := mat.New(16, 16)
	mat.Gemm(1, d, d, 0, d2)
	fmt.Printf("idempotency error %.0e\n", d2.MaxAbsDiff(d))
	// Output:
	// converged=true trace=4.0
	// idempotency error 1e-11
}

// The sparse, thresholded variant keeps the density matrix sparse — the
// linear-scaling regime.
func ExampleSparseSerial() {
	h := sparse.BandedHamiltonian(60, 3, 0.8)
	d, st, err := purify.SparseSerial(h, purify.Options{Ne: 15, Tol: 1e-5}, 1e-6)
	if err != nil {
		panic(err)
	}
	fill := 100 * float64(d.NNZ()) / (60.0 * 60.0)
	fmt.Printf("converged=%v trace=%.1f fill=%.0f%%\n", st.Converged, d.Trace(), fill)
	// Output: converged=true trace=15.0 fill=32%
}
