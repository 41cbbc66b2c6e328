package mpi

import "fmt"

// Buffer describes message payload. A real buffer wraps a []float64 whose
// contents are actually transported and combined; a phantom buffer carries
// only a byte count, so paper-scale benchmarks can run without allocating
// the data. The two kinds can interoperate (a phantom send matches a real
// receive and delivers no bytes), but the reproduction code never mixes them
// within one run.
type Buffer struct {
	Data    []float64
	phantom int64 // payload size in bytes when Data == nil
}

// F64 wraps a real float64 payload.
func F64(x []float64) Buffer { return Buffer{Data: x} }

// Phantom describes a payload of n bytes with no storage.
func Phantom(n int64) Buffer {
	if n < 0 {
		panic("mpi: negative phantom size")
	}
	return Buffer{phantom: n}
}

// IsPhantom reports whether the buffer has no storage.
func (b Buffer) IsPhantom() bool { return b.Data == nil }

// Bytes returns the payload size in bytes.
func (b Buffer) Bytes() int64 {
	if b.Data != nil {
		return int64(len(b.Data)) * 8
	}
	return b.phantom
}

// Len returns the element count of a real buffer; phantom buffers report
// their byte count divided by 8 (rounding up), which collective piece
// splitting uses to keep real and phantom runs congruent.
func (b Buffer) Len() int {
	if b.Data != nil {
		return len(b.Data)
	}
	return int((b.phantom + 7) / 8)
}

// Slice returns the sub-buffer of elements [lo, hi). For phantom buffers the
// slice is a phantom of the proportional byte count; a non-empty tail slice
// keeps the exact remainder of a byte count that is not a multiple of 8.
func (b Buffer) Slice(lo, hi int) Buffer {
	if lo < 0 || hi < lo || hi > b.Len() {
		panic(fmt.Sprintf("mpi: slice [%d:%d) of buffer with %d elements", lo, hi, b.Len()))
	}
	if b.Data != nil {
		return Buffer{Data: b.Data[lo:hi:hi]}
	}
	n := int64(hi-lo) * 8
	if hi == b.Len() && hi > lo && b.phantom%8 != 0 {
		n = b.phantom - int64(lo)*8 // preserve exact byte count on the tail
	}
	return Buffer{phantom: n}
}

// copyFrom copies src's payload into b (no-op if either side is phantom).
func (b Buffer) copyFrom(src Buffer) {
	if b.Data == nil || src.Data == nil {
		return
	}
	if len(b.Data) < len(src.Data) {
		panic(fmt.Sprintf("mpi: receive buffer too small: %d < %d", len(b.Data), len(src.Data)))
	}
	copy(b.Data, src.Data)
}

// Op identifies a reduction operator.
type Op int

const (
	// OpSum adds elementwise; the only operator the kernels use.
	OpSum Op = iota
	// OpMax takes the elementwise maximum.
	OpMax
)

// combineInto accumulates src into dst under op. Phantom operands skip the
// arithmetic (the time cost is charged separately by the collective).
func combineInto(dst, src Buffer, op Op) {
	if dst.Data == nil || src.Data == nil {
		return
	}
	if len(dst.Data) != len(src.Data) {
		panic(fmt.Sprintf("mpi: combine length mismatch %d != %d", len(dst.Data), len(src.Data)))
	}
	switch op {
	case OpSum:
		for i, v := range src.Data {
			dst.Data[i] += v
		}
	case OpMax:
		for i, v := range src.Data {
			if v > dst.Data[i] {
				dst.Data[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", op))
	}
}

// getScratch returns a scratch buffer shaped like b with elems elements,
// drawing real storage from the World's free lists. The caller must hand the
// buffer back with releaseScratch once its contents are fully consumed — and
// never release a buffer a pending operation still references. Contents are
// NOT zeroed: every consumer overwrites the full extent (receives copy the
// entire payload in) before reading.
func (w *World) getScratch(b Buffer, elems int) Buffer {
	if b.Data == nil {
		return Phantom(int64(elems) * 8)
	}
	return F64(w.getF64(elems))
}

// cloneBuf copies b's payload into pooled storage (phantoms clone to
// themselves). Used for eager-send bounce buffers and reduction
// accumulators; release with releaseScratch.
func (w *World) cloneBuf(b Buffer) Buffer {
	if b.Data == nil {
		return b
	}
	c := w.getF64(len(b.Data))
	copy(c, b.Data)
	return F64(c)
}

// releaseScratch returns a getScratch/cloneBuf buffer to the free lists.
// Phantoms (and slices not shaped like pool storage) are no-ops.
func (w *World) releaseScratch(b Buffer) {
	if b.Data != nil {
		w.putF64(b.Data)
	}
}

// getF64 returns a []float64 of length n backed by a power-of-two-capacity
// array from the size-classed free list (or a fresh allocation on a miss).
func (w *World) getF64(n int) []float64 {
	if n == 0 {
		return make([]float64, 0)
	}
	k := ceilLog2(n)
	if s := w.scratchF64[k]; len(s) > 0 {
		b := s[len(s)-1]
		s[len(s)-1] = nil
		w.scratchF64[k] = s[:len(s)-1]
		return b[:n]
	}
	return make([]float64, n, 1<<k)
}

// putF64 returns a slice to its size class. Slices whose capacity is not an
// exact power of two did not come from getF64 (e.g. a Slice view of a user
// buffer that leaked here by mistake) and are dropped for the GC rather than
// pooled, so user-owned storage can never be aliased by a later getF64.
func (w *World) putF64(b []float64) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	k := ceilLog2(c)
	w.scratchF64[k] = append(w.scratchF64[k], b[:0])
}

// ceilLog2 returns the smallest k with 1<<k >= n (n >= 1).
func ceilLog2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}
