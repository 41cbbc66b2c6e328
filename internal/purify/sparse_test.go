package purify

import (
	"math"
	"testing"

	"commoverlap/internal/sparse"
)

func TestSparseSerialExactMatchesDense(t *testing.T) {
	const n, ne, hb = 24, 6, 4
	h := sparse.BandedHamiltonian(n, hb, 4)
	wantD, wantSt, err := Serial(h.ToDense(), Options{Ne: ne})
	if err != nil || !wantSt.Converged {
		t.Fatalf("dense reference failed: %v %+v", err, wantSt)
	}
	got, st, err := SparseSerial(h, Options{Ne: ne}, 0) // no truncation: exact
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iters != wantSt.Iters {
		t.Fatalf("sparse exact run diverged from dense: %+v vs %+v", st, wantSt)
	}
	if diff := got.MaxAbsDiff(wantD); diff > 1e-10 {
		t.Errorf("exact sparse differs from dense by %g", diff)
	}
}

func TestSparseSerialThresholdedCloseToDense(t *testing.T) {
	const n, ne, hb = 40, 10, 3
	h := sparse.BandedHamiltonian(n, hb, 1.0) // rapid decay: truncation is benign
	wantD, _, err := Serial(h.ToDense(), Options{Ne: ne})
	if err != nil {
		t.Fatal(err)
	}
	const tau = 1e-7
	got, st, err := SparseSerial(h, Options{Ne: ne, Tol: 1e-6}, tau)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("thresholded run did not converge: %+v", st)
	}
	if diff := got.MaxAbsDiff(wantD); diff > 1e-4 {
		t.Errorf("thresholded density differs from dense by %g", diff)
	}
	if st.TraceErr > 1e-4 {
		t.Errorf("trace error %g", st.TraceErr)
	}
}

// Linear scaling: with a fixed band and threshold, the density matrix's
// fill per row is bounded, so total NNZ grows linearly with N.
func TestSparseLinearScaling(t *testing.T) {
	nnzOf := func(n int) int {
		h := sparse.BandedHamiltonian(n, 3, 0.8)
		// The idempotency tolerance must sit above the truncation noise
		// floor (~threshold), or the iteration can never converge.
		d, st, err := SparseSerial(h, Options{Ne: n / 4, Tol: 1e-5}, 1e-6)
		if err != nil || !st.Converged {
			t.Fatalf("n=%d: %v %+v", n, err, st)
		}
		return d.NNZ()
	}
	n1, n2 := nnzOf(60), nnzOf(120)
	ratio := float64(n2) / float64(n1)
	if ratio > 2.6 {
		t.Errorf("fill grew superlinearly: nnz(60)=%d nnz(120)=%d (ratio %.2f)", n1, n2, ratio)
	}
	// And the fill must be far below dense (120^2 = 14400).
	if n2 > 120*120/2 {
		t.Errorf("density matrix nearly dense: %d of %d", n2, 120*120)
	}
}

func TestSparseSerialErrors(t *testing.T) {
	h := sparse.BandedHamiltonian(8, 2, 4)
	if _, _, err := SparseSerial(h, Options{Ne: 0}, 0); err == nil {
		t.Error("Ne=0 accepted")
	}
	if _, _, err := SparseSerial(h, Options{Ne: 9}, 0); err == nil {
		t.Error("Ne>N accepted")
	}
}

func TestSparseGershgorinMatchesDense(t *testing.T) {
	h := sparse.BandedHamiltonian(25, 4, 4)
	slo, shi := h.Gershgorin()
	dlo, dhi := h.ToDense().Gershgorin()
	if math.Abs(slo-dlo) > 1e-12 || math.Abs(shi-dhi) > 1e-12 {
		t.Errorf("sparse bounds [%g,%g] vs dense [%g,%g]", slo, shi, dlo, dhi)
	}
}
