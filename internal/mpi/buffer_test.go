package mpi

import (
	"testing"
	"testing/quick"
)

func TestBufferBasics(t *testing.T) {
	r := F64([]float64{1, 2, 3})
	if r.IsPhantom() || r.Bytes() != 24 || r.Len() != 3 {
		t.Errorf("real buffer wrong: %+v", r)
	}
	p := Phantom(100)
	if !p.IsPhantom() || p.Bytes() != 100 || p.Len() != 13 {
		t.Errorf("phantom buffer wrong: bytes=%d len=%d", p.Bytes(), p.Len())
	}
}

func TestPhantomNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative phantom accepted")
		}
	}()
	Phantom(-1)
}

func TestBufferSliceReal(t *testing.T) {
	b := F64([]float64{0, 1, 2, 3, 4})
	s := b.Slice(1, 4)
	if s.Len() != 3 || s.Data[0] != 1 || s.Data[2] != 3 {
		t.Errorf("slice wrong: %+v", s)
	}
	// Slices share storage with the parent (no copy).
	s.Data[0] = 99
	if b.Data[1] != 99 {
		t.Error("slice does not alias parent")
	}
	// Full and empty slices.
	if b.Slice(0, 5).Len() != 5 || b.Slice(2, 2).Len() != 0 {
		t.Error("edge slices wrong")
	}
}

func TestBufferSlicePhantomPreservesTailBytes(t *testing.T) {
	b := Phantom(17) // 3 elements, 17 bytes
	head := b.Slice(0, 1)
	tail := b.Slice(1, b.Len())
	if head.Bytes() != 8 {
		t.Errorf("head bytes %d", head.Bytes())
	}
	if tail.Bytes() != 9 { // 17 - 8: the odd byte stays on the tail
		t.Errorf("tail bytes %d", tail.Bytes())
	}
	// An empty slice at the end carries no bytes, so the four ceil-sized
	// pieces a 4-rank scatter-allgather cuts from 5 elements still sum to
	// the whole payload.
	b = Phantom(33)
	if got := b.Slice(5, 5).Bytes(); got != 0 {
		t.Errorf("Slice(5, 5) of Phantom(33) has %d bytes, want 0", got)
	}
	var sum int64
	for _, r := range [][2]int{{0, 2}, {2, 4}, {4, 5}, {5, 5}} {
		sum += b.Slice(r[0], r[1]).Bytes()
	}
	if sum != 33 {
		t.Errorf("four pieces of Phantom(33) sum to %d bytes, want 33", sum)
	}
}

func TestBufferSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	F64([]float64{1}).Slice(0, 2)
}

func TestCloneIsDeep(t *testing.T) {
	var w World
	b := F64([]float64{1, 2})
	c := w.cloneBuf(b)
	c.Data[0] = 9
	if b.Data[0] != 1 {
		t.Error("clone shares storage")
	}
	p := w.cloneBuf(Phantom(8))
	if !p.IsPhantom() || p.Bytes() != 8 {
		t.Error("phantom clone wrong")
	}
}

func TestCombineInto(t *testing.T) {
	a := F64([]float64{1, 5})
	b := F64([]float64{3, 2})
	combineInto(a, b, OpSum)
	if a.Data[0] != 4 || a.Data[1] != 7 {
		t.Errorf("sum wrong: %v", a.Data)
	}
	a = F64([]float64{1, 5})
	combineInto(a, b, OpMax)
	if a.Data[0] != 3 || a.Data[1] != 5 {
		t.Errorf("max wrong: %v", a.Data)
	}
	// Phantom operands are no-ops.
	combineInto(Phantom(16), b, OpSum)
	combineInto(a, Phantom(16), OpSum)
}

func TestCombineIntoMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	combineInto(F64(make([]float64, 2)), F64(make([]float64, 3)), OpSum)
}

func TestCombineIntoUnknownOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	combineInto(F64([]float64{1}), F64([]float64{1}), Op(99))
}

func TestScratchLike(t *testing.T) {
	var w World
	r := w.getScratch(F64([]float64{1, 2}), 5)
	if r.IsPhantom() || r.Len() != 5 {
		t.Errorf("real scratch wrong: %+v", r)
	}
	p := w.getScratch(Phantom(16), 5)
	if !p.IsPhantom() || p.Bytes() != 40 {
		t.Errorf("phantom scratch wrong: %+v", p)
	}
}

// Property: slicing a phantom buffer into contiguous pieces conserves the
// total byte count exactly.
func TestPhantomSliceConservesBytesProperty(t *testing.T) {
	f := func(raw uint32, parts uint8) bool {
		bytes := int64(raw%100000) + 1
		k := int(parts%7) + 1
		b := Phantom(bytes)
		n := b.Len()
		if k > n {
			k = n
		}
		var total int64
		for i := 0; i < k; i++ {
			lo, hi := i*n/k, (i+1)*n/k
			total += b.Slice(lo, hi).Bytes()
		}
		return total == bytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatusFields(t *testing.T) {
	runJob(t, 2, 2, func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			c.Send(1, 42, F64(make([]float64, 5)))
		} else {
			req := c.Irecv(AnySource, AnyTag, F64(make([]float64, 10)))
			req.Wait()
			if req.Status.Source != 0 || req.Status.Tag != 42 || req.Status.Bytes != 40 {
				t.Errorf("status %+v", req.Status)
			}
		}
	})
}

func TestWorldNodeOf(t *testing.T) {
	runJob(t, 4, 2, func(p *Proc) {
		if p.st.ep.Node != p.Rank()%2 {
			t.Errorf("rank %d on node %d", p.Rank(), p.st.ep.Node)
		}
	})
}

func TestRunActiveAllActive(t *testing.T) {
	ran := 0
	runJob(t, 4, 2, func(p *Proc) {
		RunActive(p, p.World(), true, 0, func() {
			ran++
		})
	})
	if ran != 4 {
		t.Errorf("ran=%d", ran)
	}
}
