package bcsd

import (
	"fmt"

	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/idx"
	"blockspmv/internal/mat"
)

// Dec is the BCSD-DEC format: the input matrix split into a blocked
// submatrix holding only completely dense (unpadded) aligned diagonal
// blocks and a CSR submatrix holding the remainder elements. Both
// components store their column indices as I.
type Dec[T floats.Float, I idx.Index] struct {
	blocked *Mat[T, I]
	rem     *csr.Mat[T, I]
}

// Decomposed is the paper's baseline BCSD-DEC instantiation: 4-byte
// column indices in both components.
type Decomposed[T floats.Float] = Dec[T, int32]

// NewDecomposed converts a finalized coordinate matrix to BCSD-DEC with
// diagonal blocks of size b.
func NewDecomposed[T floats.Float](m *mat.COO[T], b int, impl blocks.Impl) *Decomposed[T] {
	return NewDecomposedIx[T, int32](m, b, impl)
}

// NewDecomposedIx is NewDecomposed with column indices stored as I in
// both the blocked part and the CSR remainder.
func NewDecomposedIx[T floats.Float, I idx.Index](m *mat.COO[T], b int, impl blocks.Impl) *Dec[T, I] {
	if !m.Finalized() {
		panic("bcsd: matrix must be finalized")
	}
	full, rem := SplitFullBlocks(m, b)
	d := &Dec[T, I]{
		blocked: NewIx[T, I](full, b, impl),
		rem:     csr.FromCOOIx[T, I](rem, impl),
	}
	if p := d.blocked.Padding(); p != 0 {
		panic(fmt.Sprintf("bcsd: decomposed blocked part has %d padding zeros", p))
	}
	return d
}

// NewDecomposedCompact converts a finalized coordinate matrix to
// BCSD-DEC with the narrowest column-index type the matrix width
// permits.
func NewDecomposedCompact[T floats.Float](m *mat.COO[T], b int, impl blocks.Impl) formats.Instance[T] {
	switch idx.FitsCols(m.Cols()) {
	case idx.W8:
		return NewDecomposedIx[T, uint8](m, b, impl)
	case idx.W16:
		return NewDecomposedIx[T, uint16](m, b, impl)
	default:
		return NewDecomposedIx[T, int32](m, b, impl)
	}
}

// SplitFullBlocks partitions the entries of m into a matrix containing
// exactly the completely dense aligned diagonal blocks of size b and a
// matrix with everything else. Both results are finalized. It is the
// extraction step of BCSD-DEC, exported for the multi-pattern
// decomposition.
func SplitFullBlocks[T floats.Float](m *mat.COO[T], b int) (full, rem *mat.COO[T]) {
	entries := m.Entries()
	rows, cols := m.Rows(), m.Cols()

	fullM := mat.New[T](rows, cols)
	remM := mat.New[T](rows, cols)

	// Process one segment at a time: count entries per diagonal block
	// (start s has slot s+b-1), then route each entry by whether its
	// block is full. Only a block wholly inside the matrix can hold all b
	// entries.
	lead := int32(b - 1)
	count := blocks.Stamps(nil, cols+b-1)
	for lo := 0; lo < len(entries); {
		seg := entries[lo].Row / int32(b)
		hi := lo
		for hi < len(entries) && entries[hi].Row/int32(b) == seg {
			hi++
		}
		for _, e := range entries[lo:hi] {
			st := &count[e.Col-(e.Row-seg*int32(b))+lead]
			if st.Row != seg {
				*st = blocks.Stamp{Row: seg}
			}
			st.N++
		}
		for _, e := range entries[lo:hi] {
			if count[e.Col-(e.Row-seg*int32(b))+lead].N == int32(b) {
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

// Shape returns the diagonal block shape of the blocked component.
func (d *Dec[T, I]) Shape() blocks.Shape { return d.blocked.Shape() }

// Name implements formats.Instance.
func (d *Dec[T, I]) Name() string {
	n := fmt.Sprintf("BCSD-DEC(d%d)", d.blocked.b) + idx.Of[I]().Suffix()
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

// Components implements formats.Instance.
func (d *Dec[T, I]) Components() []formats.Component {
	return append(d.blocked.Components(), d.rem.Components()...)
}

// RowAlign implements formats.Instance.
func (d *Dec[T, I]) RowAlign() int { return d.blocked.b }

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

// MulRange implements formats.Instance.
func (d *Dec[T, I]) MulRange(x, y []T, r0, r1 int) {
	d.blocked.MulRange(x, y, r0, r1)
	d.rem.MulRange(x, y, r0, r1)
}

// MulRangeMulti implements formats.Instance: both components accumulate
// into the same output panel in the MulRange order, so every panel
// column reproduces a single-vector MulRange bit for bit.
func (d *Dec[T, I]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	d.blocked.MulRangeMulti(x, y, k, r0, r1)
	d.rem.MulRangeMulti(x, y, k, r0, r1)
}

var (
	_ formats.Instance[float32] = (*Decomposed[float32])(nil)
	_ formats.Instance[float32] = (*Dec[float32, uint16])(nil)
	_ formats.Instance[float32] = (*Dec[float32, uint8])(nil)
)

// WithImpl implements formats.Instance.
func (d *Dec[T, I]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	return &Dec[T, I]{
		blocked: d.blocked.WithImpl(impl).(*Mat[T, I]),
		rem:     d.rem.WithImpl(impl).(*csr.Mat[T, I]),
	}
}
