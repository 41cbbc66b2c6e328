// Package sparse provides the compressed-sparse-row substrate for the
// paper's closing remark — "although we treated the dense matrix case, the
// same ideas could be applied to the sparse matrix case". It supplies CSR
// storage, Gustavson's row-wise SpGEMM, sparse linear combinations,
// magnitude thresholding (the linear-scaling-DFT truncation), and
// serialization so sparse blocks can travel through the simulated MPI
// library's float64 buffers.
package sparse

import (
	"fmt"
	"math"

	"commoverlap/internal/mat"
)

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int // len NNZ
	Val        []float64
}

// NewEmpty returns a CSR with no stored entries.
func NewEmpty(rows, cols int) *CSR {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dims %dx%d", rows, cols))
	}
	return &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
}

// NNZ reports the number of stored entries.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// FromDense converts a dense matrix, keeping entries with |v| > tol.
func FromDense(d *mat.Matrix, tol float64) *CSR {
	if d.Phantom() {
		panic("sparse: FromDense on phantom matrix")
	}
	out := &CSR{Rows: d.Rows, Cols: d.Cols, RowPtr: make([]int, d.Rows+1)}
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if v := d.At(i, j); math.Abs(v) > tol {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// ToDense expands to dense storage.
func (m *CSR) ToDense() *mat.Matrix {
	d := mat.New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
	return d
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	c := &CSR{Rows: m.Rows, Cols: m.Cols,
		RowPtr: make([]int, len(m.RowPtr)),
		ColIdx: make([]int, len(m.ColIdx)),
		Val:    make([]float64, len(m.Val)),
	}
	copy(c.RowPtr, m.RowPtr)
	copy(c.ColIdx, m.ColIdx)
	copy(c.Val, m.Val)
	return c
}

// Trace sums the stored diagonal entries (square blocks of the global
// diagonal; callers pass offsets for off-square use).
func (m *CSR) Trace() float64 {
	s := 0.0
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == i {
				s += m.Val[k]
			}
		}
	}
	return s
}

// Scale multiplies all stored entries by a.
func (m *CSR) Scale(a float64) {
	for i := range m.Val {
		m.Val[i] *= a
	}
}

// Threshold drops entries with |v| <= tol, in place — the truncation that
// keeps linear-scaling purification linear.
func (m *CSR) Threshold(tol float64) {
	out := 0
	newPtr := make([]int, m.Rows+1)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if math.Abs(m.Val[k]) > tol {
				m.ColIdx[out] = m.ColIdx[k]
				m.Val[out] = m.Val[k]
				out++
			}
		}
		newPtr[i+1] = out
	}
	m.RowPtr = newPtr
	m.ColIdx = m.ColIdx[:out]
	m.Val = m.Val[:out]
}

// SpGEMM computes A*B with Gustavson's row-wise algorithm.
func SpGEMM(a, b *CSR) *CSR {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: SpGEMM shape (%dx%d)*(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1)}
	acc := make([]float64, b.Cols)
	mark := make([]int, b.Cols)
	for i := range mark {
		mark[i] = -1
	}
	var cols []int
	for i := 0; i < a.Rows; i++ {
		cols = cols[:0]
		for ka := a.RowPtr[i]; ka < a.RowPtr[i+1]; ka++ {
			j, av := a.ColIdx[ka], a.Val[ka]
			for kb := b.RowPtr[j]; kb < b.RowPtr[j+1]; kb++ {
				c := b.ColIdx[kb]
				if mark[c] != i {
					mark[c] = i
					acc[c] = 0
					cols = append(cols, c)
				}
				acc[c] += av * b.Val[kb]
			}
		}
		// Deterministic column order within the row.
		insertionSort(cols)
		for _, c := range cols {
			out.ColIdx = append(out.ColIdx, c)
			out.Val = append(out.Val, acc[c])
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// SpGEMMFlops estimates the multiply-add count of SpGEMM(a, b), for
// virtual compute-time charging.
func SpGEMMFlops(a, b *CSR) float64 {
	ops := 0.0
	for i := 0; i < a.Rows; i++ {
		for ka := a.RowPtr[i]; ka < a.RowPtr[i+1]; ka++ {
			j := a.ColIdx[ka]
			ops += float64(b.RowPtr[j+1] - b.RowPtr[j])
		}
	}
	return 2 * ops
}

// Add returns a + beta*b.
func Add(a *CSR, beta float64, b *CSR) *CSR {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("sparse: Add shape mismatch")
	}
	out := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		ka, kb := a.RowPtr[i], b.RowPtr[i]
		for ka < a.RowPtr[i+1] || kb < b.RowPtr[i+1] {
			switch {
			case kb >= b.RowPtr[i+1] || (ka < a.RowPtr[i+1] && a.ColIdx[ka] < b.ColIdx[kb]):
				out.ColIdx = append(out.ColIdx, a.ColIdx[ka])
				out.Val = append(out.Val, a.Val[ka])
				ka++
			case ka >= a.RowPtr[i+1] || b.ColIdx[kb] < a.ColIdx[ka]:
				out.ColIdx = append(out.ColIdx, b.ColIdx[kb])
				out.Val = append(out.Val, beta*b.Val[kb])
				kb++
			default:
				out.ColIdx = append(out.ColIdx, a.ColIdx[ka])
				out.Val = append(out.Val, a.Val[ka]+beta*b.Val[kb])
				ka++
				kb++
			}
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// AddIdentity adds a*I to the square block whose global diagonal runs
// through it (diagOffset is the column index of row 0's diagonal element;
// negative values mean the diagonal enters below row 0).
func (m *CSR) AddIdentity(a float64, diagOffset int) *CSR {
	eye := NewEmpty(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		j := i + diagOffset
		if j >= 0 && j < m.Cols {
			eye.ColIdx = append(eye.ColIdx, j)
			eye.Val = append(eye.Val, 1)
		}
		eye.RowPtr[i+1] = len(eye.ColIdx)
	}
	return Add(m, a, eye)
}

// MaxAbsDiff compares against a dense matrix.
func (m *CSR) MaxAbsDiff(d *mat.Matrix) float64 {
	return m.ToDense().MaxAbsDiff(d)
}

// BandedHamiltonian builds the sparse analogue of mat.BandedHamiltonian:
// the same entries, truncated to half-bandwidth hb (entries beyond decay
// to ~e^-(hb/decay) and are dropped — the linear-scaling regime).
func BandedHamiltonian(n, hb int, decay float64) *CSR {
	if decay <= 0 {
		decay = 4
	}
	out := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		for j := max(0, i-hb); j <= min(n-1, i+hb); j++ {
			var v float64
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			if i == j {
				v = -2 + math.Sin(0.3*float64(i))
			} else {
				v = math.Exp(-float64(hi-lo)/decay) * math.Cos(0.7*float64(lo+hi))
			}
			out.ColIdx = append(out.ColIdx, j)
			out.Val = append(out.Val, v)
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Gershgorin returns eigenvalue bounds of the square matrix from its
// stored entries (absent entries are zero and do not widen the discs).
func (m *CSR) Gershgorin() (lo, hi float64) {
	if m.Rows != m.Cols {
		panic("sparse: Gershgorin on non-square matrix")
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < m.Rows; i++ {
		diag, r := 0.0, 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == i {
				diag = m.Val[k]
			} else {
				r += math.Abs(m.Val[k])
			}
		}
		if diag-r < lo {
			lo = diag - r
		}
		if diag+r > hi {
			hi = diag + r
		}
	}
	return lo, hi
}
