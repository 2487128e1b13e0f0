package bcsr

import (
	"fmt"

	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/idx"
	"blockspmv/internal/mat"
)

// Dec is the BCSR-DEC format: the input matrix split into a blocked
// submatrix holding only completely dense (unpadded) r x c aligned blocks
// and a CSR submatrix holding the remainder elements (Section II.B,
// k = 2). Both components store their column indices as I.
type Dec[T floats.Float, I idx.Index] struct {
	blocked *Mat[T, I]
	rem     *csr.Mat[T, I]
}

// Decomposed is the paper's baseline BCSR-DEC instantiation: 4-byte
// column indices in both components.
type Decomposed[T floats.Float] = Dec[T, int32]

// NewDecomposed converts a finalized coordinate matrix to BCSR-DEC.
func NewDecomposed[T floats.Float](m *mat.COO[T], r, c int, impl blocks.Impl) *Decomposed[T] {
	return NewDecomposedIx[T, int32](m, r, c, impl)
}

// NewDecomposedIx is NewDecomposed with column indices stored as I in
// both the blocked part and the CSR remainder.
func NewDecomposedIx[T floats.Float, I idx.Index](m *mat.COO[T], r, c int, impl blocks.Impl) *Dec[T, I] {
	if !m.Finalized() {
		panic("bcsr: matrix must be finalized")
	}
	full, rem := SplitFullBlocks(m, r, c)
	d := &Dec[T, I]{
		blocked: NewIx[T, I](full, r, c, impl),
		rem:     csr.FromCOOIx[T, I](rem, impl),
	}
	if p := d.blocked.Padding(); p != 0 {
		panic(fmt.Sprintf("bcsr: decomposed blocked part has %d padding zeros", p))
	}
	return d
}

// NewDecomposedCompact converts a finalized coordinate matrix to
// BCSR-DEC with the narrowest column-index type the matrix width
// permits.
func NewDecomposedCompact[T floats.Float](m *mat.COO[T], r, c int, impl blocks.Impl) formats.Instance[T] {
	switch idx.FitsCols(m.Cols()) {
	case idx.W8:
		return NewDecomposedIx[T, uint8](m, r, c, impl)
	case idx.W16:
		return NewDecomposedIx[T, uint16](m, r, c, impl)
	default:
		return NewDecomposedIx[T, int32](m, r, c, impl)
	}
}

// SplitFullBlocks partitions the entries of m into a matrix containing
// exactly the completely dense aligned r x c blocks and a matrix with
// everything else. Both results are finalized. It is the extraction step
// of BCSR-DEC, exported for the multi-pattern decomposition.
func SplitFullBlocks[T floats.Float](m *mat.COO[T], r, c int) (full, rem *mat.COO[T]) {
	entries := m.Entries()
	rows, cols := m.Rows(), m.Cols()
	elems := r * c

	fullM := mat.New[T](rows, cols)
	remM := mat.New[T](rows, cols)

	// Process one block row at a time: count entries per aligned block,
	// then route each entry by whether its block is full. Only a block
	// wholly inside the matrix can hold all r*c entries.
	count := blocks.Stamps(nil, (cols+c-1)/c)
	for lo := 0; lo < len(entries); {
		br := entries[lo].Row / int32(r)
		hi := lo
		for hi < len(entries) && entries[hi].Row/int32(r) == br {
			hi++
		}
		for _, e := range entries[lo:hi] {
			st := &count[e.Col/int32(c)]
			if st.Row != br {
				*st = blocks.Stamp{Row: br}
			}
			st.N++
		}
		for _, e := range entries[lo:hi] {
			if count[e.Col/int32(c)].N == int32(elems) {
				fullM.Add(e.Row, e.Col, e.Val)
			} else {
				remM.Add(e.Row, e.Col, e.Val)
			}
		}
		lo = hi
	}
	fullM.Finalize()
	remM.Finalize()
	return fullM, remM
}

// Blocked returns the blocked component.
func (d *Dec[T, I]) Blocked() *Mat[T, I] { return d.blocked }

// Remainder returns the CSR remainder component.
func (d *Dec[T, I]) Remainder() *csr.Mat[T, I] { return d.rem }

// Shape returns the block shape of the blocked component.
func (d *Dec[T, I]) Shape() blocks.Shape { return d.blocked.Shape() }

// Name implements formats.Instance.
func (d *Dec[T, I]) Name() string {
	n := fmt.Sprintf("BCSR-DEC(%dx%d)", d.blocked.r, d.blocked.c) + idx.Of[I]().Suffix()
	if d.blocked.impl == blocks.Vector {
		n += "/simd"
	}
	return n
}

// Rows implements formats.Instance.
func (d *Dec[T, I]) Rows() int { return d.blocked.Rows() }

// Cols implements formats.Instance.
func (d *Dec[T, I]) Cols() int { return d.blocked.Cols() }

// NNZ implements formats.Instance.
func (d *Dec[T, I]) NNZ() int64 { return d.blocked.NNZ() + d.rem.NNZ() }

// StoredScalars implements formats.Instance; a decomposition stores no
// padding, so this equals NNZ.
func (d *Dec[T, I]) StoredScalars() int64 {
	return d.blocked.StoredScalars() + d.rem.StoredScalars()
}

// MatrixBytes implements formats.Instance.
func (d *Dec[T, I]) MatrixBytes() int64 {
	return d.blocked.MatrixBytes() + d.rem.MatrixBytes()
}

// Components implements formats.Instance: one component per submatrix, in
// multiplication order (blocked first, CSR remainder second), matching the
// k-term sums of equations (2) and (3).
func (d *Dec[T, I]) Components() []formats.Component {
	return append(d.blocked.Components(), d.rem.Components()...)
}

// RowAlign implements formats.Instance.
func (d *Dec[T, I]) RowAlign() int { return d.blocked.r }

// RowWeights implements formats.Instance.
func (d *Dec[T, I]) RowWeights() []int64 {
	w := d.blocked.RowWeights()
	for r, rw := range d.rem.RowWeights() {
		w[r] += rw
	}
	return w
}

// Mul implements formats.Instance.
func (d *Dec[T, I]) Mul(x, y []T) {
	formats.CheckDims[T](d, x, y)
	floats.Fill(y, 0)
	d.MulRange(x, y, 0, d.Rows())
}

// MulRange implements formats.Instance: both components accumulate into
// the same output range, performing the partial-result accumulation of the
// decomposed method.
func (d *Dec[T, I]) MulRange(x, y []T, r0, r1 int) {
	d.blocked.MulRange(x, y, r0, r1)
	d.rem.MulRange(x, y, r0, r1)
}

// MulRangeMulti implements formats.Instance: both components accumulate
// into the same output panel in the MulRange order. Each component's
// multi kernel uses per-row local accumulators with a single add into
// y per panel column, so the component-accumulation order — and hence
// the bits — match k sequential MulRange calls.
func (d *Dec[T, I]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	d.blocked.MulRangeMulti(x, y, k, r0, r1)
	d.rem.MulRangeMulti(x, y, k, r0, r1)
}

var (
	_ formats.Instance[float64] = (*Decomposed[float64])(nil)
	_ formats.Instance[float64] = (*Dec[float64, uint16])(nil)
	_ formats.Instance[float64] = (*Dec[float64, uint8])(nil)
)

// WithImpl implements formats.Instance.
func (d *Dec[T, I]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	return &Dec[T, I]{
		blocked: d.blocked.WithImpl(impl).(*Mat[T, I]),
		rem:     d.rem.WithImpl(impl).(*csr.Mat[T, I]),
	}
}
