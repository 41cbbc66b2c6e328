package mat

import "fmt"

// gemmBlock is the cache-blocking tile edge for Gemm.
const gemmBlock = 64

// Gemm computes C = alpha*A*B + beta*C with a tiled ikj kernel. If any
// operand is phantom the numeric work is skipped (shapes are still checked),
// which is how paper-scale benchmark runs avoid real arithmetic.
func Gemm(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Gemm shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if a.Phantom() || b.Phantom() || c.Phantom() {
		return
	}
	if beta != 1 {
		if beta == 0 {
			c.Zero()
		} else {
			c.Scale(beta)
		}
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	for i0 := 0; i0 < m; i0 += gemmBlock {
		iMax := min(i0+gemmBlock, m)
		for k0 := 0; k0 < k; k0 += gemmBlock {
			kMax := min(k0+gemmBlock, k)
			for j0 := 0; j0 < n; j0 += gemmBlock {
				jMax := min(j0+gemmBlock, n)
				for i := i0; i < iMax; i++ {
					arow := a.Data[i*a.Stride:]
					crow := c.Data[i*c.Stride:]
					for kk := k0; kk < kMax; kk++ {
						av := alpha * arow[kk]
						if av == 0 {
							continue
						}
						brow := b.Data[kk*b.Stride:]
						for j := j0; j < jMax; j++ {
							crow[j] += av * brow[j]
						}
					}
				}
			}
		}
	}
}

// GemmFlops returns the floating-point operation count of a GEMM with the
// given operand shapes (2*m*n*k), used for virtual compute-time charging.
func GemmFlops(m, k, n int) float64 {
	return 2 * float64(m) * float64(k) * float64(n)
}

// MatVec computes y = A*x (y allocated by caller, len(y) == A.Rows).
func MatVec(a *Matrix, x, y []float64) {
	if a.Phantom() {
		return
	}
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("mat: MatVec shape mismatch %dx%d * %d -> %d", a.Rows, a.Cols, len(x), len(y)))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}
