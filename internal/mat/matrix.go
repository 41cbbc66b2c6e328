// Package mat provides the dense matrix kernels used by the distributed
// algorithms: storage, blocked GEMM, elementwise operations, traces and
// norms, symmetric test-matrix generators, Gershgorin spectral bounds, and
// block-partitioning helpers.
//
// A Matrix may be "phantom": dimensions without storage (Data == nil).
// Phantom matrices let the benchmark harness run paper-scale problem sizes
// (N ~ 7645) where only the virtual cost of compute and communication
// matters, without allocating tens of megabytes per block. Numerical
// operations on phantom matrices are no-ops; correctness is established
// separately at real sizes.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix. Data == nil marks a phantom matrix.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// New allocates a zero Rows x Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: make([]float64, rows*cols)}
}

// NewPhantom creates a matrix with dimensions but no storage.
func NewPhantom(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols}
}

// Phantom reports whether m has no storage.
func (m *Matrix) Phantom() bool { return m.Data == nil }

// Bytes returns the payload size of the matrix in bytes (8 per element),
// defined for both real and phantom matrices.
func (m *Matrix) Bytes() int64 { return int64(m.Rows) * int64(m.Cols) * 8 }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Stride+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Stride+j] = v
}

func (m *Matrix) check(i, j int) {
	if m.Phantom() {
		panic("mat: element access on phantom matrix")
	}
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Clone returns a deep copy (phantoms clone to phantoms).
func (m *Matrix) Clone() *Matrix {
	if m.Phantom() {
		return NewPhantom(m.Rows, m.Cols)
	}
	c := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(c.Data[i*c.Stride:i*c.Stride+m.Cols], m.Data[i*m.Stride:i*m.Stride+m.Cols])
	}
	return c
}

// CopyFrom copies src into m; dimensions must match. Copying between a
// phantom and a real matrix is a no-op on the phantom side.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	if m.Phantom() || src.Phantom() {
		return
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Data[i*m.Stride:i*m.Stride+m.Cols], src.Data[i*src.Stride:i*src.Stride+m.Cols])
	}
}

// Zero clears all elements.
func (m *Matrix) Zero() {
	if m.Phantom() {
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = 0
		}
	}
}

// View returns a submatrix [r0:r0+rows, c0:c0+cols) sharing storage with m.
func (m *Matrix) View(r0, c0, rows, cols int) *Matrix {
	if r0 < 0 || c0 < 0 || r0+rows > m.Rows || c0+cols > m.Cols {
		panic(fmt.Sprintf("mat: view [%d:%d,%d:%d) out of %dx%d", r0, r0+rows, c0, c0+cols, m.Rows, m.Cols))
	}
	if m.Phantom() {
		return NewPhantom(rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: m.Stride, Data: m.Data[r0*m.Stride+c0:]}
}

// MaxAbsDiff returns max_ij |m_ij - o_ij|.
func (m *Matrix) MaxAbsDiff(o *Matrix) float64 {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("mat: MaxAbsDiff shape mismatch")
	}
	if m.Phantom() || o.Phantom() {
		return 0
	}
	d := 0.0
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if v := math.Abs(m.At(i, j) - o.At(i, j)); v > d {
				d = v
			}
		}
	}
	return d
}

// Trace returns the sum of diagonal elements (0 for phantoms).
func (m *Matrix) Trace() float64 {
	if m.Phantom() {
		return 0
	}
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += m.Data[i*m.Stride+i]
	}
	return s
}

// FrobNorm returns the Frobenius norm (0 for phantoms).
func (m *Matrix) FrobNorm() float64 {
	if m.Phantom() {
		return 0
	}
	s := 0.0
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// Scale multiplies every element by a.
func (m *Matrix) Scale(a float64) {
	if m.Phantom() {
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] *= a
		}
	}
}

// Add accumulates m += a*o.
func (m *Matrix) Add(a float64, o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("mat: Add shape mismatch")
	}
	if m.Phantom() || o.Phantom() {
		return
	}
	for i := 0; i < m.Rows; i++ {
		dst := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		src := o.Data[i*o.Stride : i*o.Stride+m.Cols]
		for j := range dst {
			dst[j] += a * src[j]
		}
	}
}

// AddIdentity accumulates m += a*I (square matrices).
func (m *Matrix) AddIdentity(a float64) {
	if m.Rows != m.Cols {
		panic("mat: AddIdentity on non-square matrix")
	}
	if m.Phantom() {
		return
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Stride+i] += a
	}
}

// Transpose returns a new matrix that is mᵀ.
func (m *Matrix) Transpose() *Matrix {
	if m.Phantom() {
		return NewPhantom(m.Cols, m.Rows)
	}
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Stride+i] = m.Data[i*m.Stride+j]
		}
	}
	return t
}

// IsSymmetric reports whether the square matrix is symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	if m.Phantom() {
		return true
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// RandSymmetric returns an n x n symmetric matrix with entries in [-1, 1)
// drawn from rng.
func RandSymmetric(n int, rng *rand.Rand) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := 2*rng.Float64() - 1
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// Rand returns an r x c matrix with entries in [-1, 1) drawn from rng.
func Rand(r, c int, rng *rand.Rand) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// BandedHamiltonian builds a synthetic symmetric "Hamiltonian" with
// exponentially decaying off-diagonals, the stand-in for the paper's Fock
// matrices (1hsg_XX systems): H_ij = exp(-|i-j|/decay) * cos(0.7*(i+j)) with
// a shifted diagonal. It is symmetric and has a spread-out spectrum, which
// gives canonical purification realistic iteration counts.
func BandedHamiltonian(n int, decay float64) *Matrix {
	if decay <= 0 {
		decay = 4
	}
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := math.Exp(-float64(j-i)/decay) * math.Cos(0.7*float64(i+j))
			if i == j {
				v = -2 + math.Sin(0.3*float64(i))
			}
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// Gershgorin returns lower and upper bounds on the eigenvalues of the square
// matrix using Gershgorin discs.
func (m *Matrix) Gershgorin() (lo, hi float64) {
	if m.Rows != m.Cols {
		panic("mat: Gershgorin on non-square matrix")
	}
	if m.Phantom() {
		return 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < m.Rows; i++ {
		r := 0.0
		for j := 0; j < m.Cols; j++ {
			if j != i {
				r += math.Abs(m.At(i, j))
			}
		}
		d := m.At(i, i)
		if d-r < lo {
			lo = d - r
		}
		if d+r > hi {
			hi = d + r
		}
	}
	return lo, hi
}
