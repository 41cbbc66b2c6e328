package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccess(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 || len(m.Data) != 12 {
		t.Fatalf("bad New: %+v", m)
	}
	m.Set(2, 3, 7)
	if m.At(2, 3) != 7 {
		t.Errorf("At(2,3)=%g", m.At(2, 3))
	}
	if m.Bytes() != 96 {
		t.Errorf("Bytes=%d want 96", m.Bytes())
	}
}

func TestPhantomBasics(t *testing.T) {
	m := NewPhantom(5, 6)
	if !m.Phantom() {
		t.Fatal("not phantom")
	}
	if m.Bytes() != 240 {
		t.Errorf("Bytes=%d want 240", m.Bytes())
	}
	// These must be harmless no-ops.
	m.Zero()
	m.Scale(2)
	m.Add(1, NewPhantom(5, 6))
	if m.Trace() != 0 || m.FrobNorm() != 0 {
		t.Error("phantom scalar reductions should be 0")
	}
	c := m.Clone()
	if !c.Phantom() || c.Rows != 5 {
		t.Error("phantom clone wrong")
	}
	tr := m.Transpose()
	if tr.Rows != 6 || tr.Cols != 5 || !tr.Phantom() {
		t.Error("phantom transpose wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on phantom element access")
		}
	}()
	m.At(0, 0)
}

func TestCloneIndependent(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("clone shares storage")
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := New(4, 4)
	v := m.View(1, 2, 2, 2)
	v.Set(0, 0, 5)
	if m.At(1, 2) != 5 {
		t.Error("view does not share storage")
	}
	if v.Rows != 2 || v.Cols != 2 {
		t.Error("view shape wrong")
	}
}

func TestViewOutOfRangePanics(t *testing.T) {
	m := New(4, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.View(2, 2, 3, 1)
}

func TestTraceAndNorm(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 3)
	m.Set(1, 1, 4)
	m.Set(0, 1, -2)
	if m.Trace() != 7 {
		t.Errorf("trace=%g", m.Trace())
	}
	want := math.Sqrt(9 + 16 + 4)
	if math.Abs(m.FrobNorm()-want) > 1e-14 {
		t.Errorf("frob=%g want %g", m.FrobNorm(), want)
	}
}

func TestAddScaleIdentity(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 2)
	o := m.Clone()
	m.Add(2, o)  // m = 3*o
	m.Scale(0.5) // m = 1.5*o
	m.AddIdentity(1)
	if m.At(0, 0) != 2.5 || m.At(1, 1) != 4 || m.At(0, 1) != 0 {
		t.Errorf("got %v", m.Data)
	}
}

func TestTransposeAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Rand(3, 5, rng)
	at := a.Transpose()
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatal("transpose wrong")
			}
		}
	}
	s := RandSymmetric(7, rng)
	if !s.IsSymmetric(0) {
		t.Error("RandSymmetric not symmetric")
	}
	s.Set(0, 1, s.At(0, 1)+1)
	if s.IsSymmetric(1e-9) {
		t.Error("IsSymmetric missed asymmetry")
	}
}

func TestBandedHamiltonian(t *testing.T) {
	h := BandedHamiltonian(20, 4)
	if !h.IsSymmetric(0) {
		t.Error("Hamiltonian not symmetric")
	}
	lo, hi := h.Gershgorin()
	if !(lo < hi) {
		t.Errorf("degenerate Gershgorin bounds [%g,%g]", lo, hi)
	}
}

func TestGershgorinBoundsDiagonal(t *testing.T) {
	m := New(3, 3)
	m.Set(0, 0, -1)
	m.Set(1, 1, 2)
	m.Set(2, 2, 5)
	lo, hi := m.Gershgorin()
	if lo != -1 || hi != 5 {
		t.Errorf("bounds [%g,%g] want [-1,5]", lo, hi)
	}
}

func naiveGemm(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {64, 64, 64}, {65, 63, 67}, {100, 1, 100}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := Rand(m, k, rng), Rand(k, n, rng)
		c1, c2 := Rand(m, n, rng), New(m, n)
		c2.CopyFrom(c1)
		Gemm(1.3, a, b, 0.7, c1)
		naiveGemm(1.3, a, b, 0.7, c2)
		if d := c1.MaxAbsDiff(c2); d > 1e-10*float64(k) {
			t.Errorf("dims %v: max diff %g", dims, d)
		}
	}
}

func TestGemmBetaZeroOverwritesGarbage(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	c := New(2, 2)
	c.Set(0, 1, math.NaN())
	Gemm(1, a, a, 0, c)
	if c.At(0, 1) != 0 {
		t.Errorf("beta=0 must clear target, got %g", c.At(0, 1))
	}
}

func TestGemmPhantomNoop(t *testing.T) {
	a := NewPhantom(8, 8)
	c := NewPhantom(8, 8)
	Gemm(1, a, a, 0, c) // must not panic
	if GemmFlops(8, 8, 8) != 1024 {
		t.Errorf("GemmFlops=%g", GemmFlops(8, 8, 8))
	}
}

func TestGemmShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Gemm(1, New(2, 3), New(2, 3), 0, New(2, 3))
}

func TestMatVec(t *testing.T) {
	a := New(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, float64(i*3+j))
		}
	}
	x := []float64{1, 2, 3}
	y := make([]float64, 2)
	MatVec(a, x, y)
	if y[0] != 8 || y[1] != 26 {
		t.Errorf("y=%v", y)
	}
}

func TestBlockDim(t *testing.T) {
	b := BlockDim{N: 10, P: 4} // sizes 3,3,2,2
	wantCounts := []int{3, 3, 2, 2}
	wantOffsets := []int{0, 3, 6, 8}
	for i := 0; i < 4; i++ {
		if b.Count(i) != wantCounts[i] || b.Offset(i) != wantOffsets[i] {
			t.Errorf("block %d: count %d offset %d", i, b.Count(i), b.Offset(i))
		}
	}
	if b.MaxCount() != 3 {
		t.Errorf("MaxCount=%d", b.MaxCount())
	}
}

// Property: counts sum to N, offsets consistent, sizes differ by at most 1.
func TestBlockDimProperty(t *testing.T) {
	f := func(n uint16, p uint8) bool {
		N, P := int(n%2000), int(p%32)+1
		b := BlockDim{N: N, P: P}
		sum, prevEnd := 0, 0
		minC, maxC := 1<<30, 0
		for i := 0; i < P; i++ {
			c, o := b.Count(i), b.Offset(i)
			if o != prevEnd {
				return false
			}
			prevEnd = o + c
			sum += c
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		return sum == N && maxC-minC <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Gemm is linear in alpha: Gemm(2a) == 2*Gemm(a) for beta=0.
func TestGemmLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		a, b := Rand(n, n, rng), Rand(n, n, rng)
		c1, c2 := New(n, n), New(n, n)
		Gemm(1, a, b, 0, c1)
		Gemm(2, a, b, 0, c2)
		c1.Scale(2)
		return c1.MaxAbsDiff(c2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: (AB)ᵀ == BᵀAᵀ.
func TestGemmTransposeIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := rng.Intn(12)+1, rng.Intn(12)+1, rng.Intn(12)+1
		a, b := Rand(m, k, rng), Rand(k, n, rng)
		ab := New(m, n)
		Gemm(1, a, b, 0, ab)
		btat := New(n, m)
		Gemm(1, b.Transpose(), a.Transpose(), 0, btat)
		return ab.Transpose().MaxAbsDiff(btat) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSplitCountsOffsets splits 7 items over 3 blocks: the one extra item
// goes to the first block.
func TestSplitCountsOffsets(t *testing.T) {
	b := BlockDim{N: 7, P: 3}
	for i, want := range [][2]int{{3, 0}, {2, 3}, {2, 5}} {
		if c, o := b.Count(i), b.Offset(i); c != want[0] || o != want[1] {
			t.Errorf("block %d: count %d offset %d, want %d and %d", i, c, o, want[0], want[1])
		}
	}
}

func TestBlockView(t *testing.T) {
	m := New(10, 10)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	blk := BlockView(m, 4, 1, 2) // rows 3..5, cols 6..7
	if blk.Rows != 3 || blk.Cols != 2 {
		t.Fatalf("block shape %dx%d", blk.Rows, blk.Cols)
	}
	if blk.At(0, 0) != 36 {
		t.Errorf("block origin %g want 36", blk.At(0, 0))
	}
}

func TestCopyFromPhantomMix(t *testing.T) {
	r := New(2, 2)
	p := NewPhantom(2, 2)
	r.Set(0, 0, 3)
	r.CopyFrom(p) // no-op, must not panic
	if r.At(0, 0) != 3 {
		t.Error("phantom CopyFrom corrupted real matrix")
	}
	p.CopyFrom(r) // no-op
}
