// Package bcsr implements the Blocked Compressed Sparse Row format (Im &
// Yelick [8]) and its decomposed variant BCSR-DEC.
//
// BCSR stores fixed r x c blocks aligned at r row- and c column-boundaries:
// a block always starts at (i, j) with i%r == 0 and j%c == 0. Every aligned
// block position holding at least one nonzero is stored in full, with zero
// padding for the missing positions. Three arrays hold the matrix: bval
// (block values, row-major within each block), bcol (4-byte starting column
// of each block) and browPtr (4-byte pointers to the first block of each
// block row).
//
// Blocks whose column span overhangs the right matrix edge cannot use the
// unrolled kernels (they would read x out of bounds); they are kept in a
// small side structure and multiplied by a clipped path. A block row at
// the bottom edge shorter than r rows takes the same clipped path.
//
// The interior block start columns are stored as 4-byte integers in the
// paper's baseline and as uint16/uint8 in the compressed variants
// (NewCompact); the rare edge-block arrays and the block-row pointers
// always stay 4-byte.
package bcsr

import (
	"fmt"
	"slices"

	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/idx"
	"blockspmv/internal/kernels"
	"blockspmv/internal/mat"
)

// Mat is a sparse matrix in BCSR format with fixed r x c blocks and
// interior block start columns stored as I.
type Mat[T floats.Float, I idx.Index] struct {
	rows, cols int
	r, c       int
	impl       blocks.Impl
	kernel     kernels.BlockRowKernelIx[T, I]

	browPtr []int32 // len nBlockRows+1; indexes bcol/bval-block
	bcol    []I     // absolute starting column of each interior block
	bval    []T     // len(bcol) * r * c

	// Right-edge blocks (start column + c > cols), multiplied clipped.
	edgeBRow []int32
	edgeCol  []int32
	edgeVal  []T

	nnz int64
}

// Matrix is the paper's baseline BCSR instantiation: 4-byte block start
// columns.
type Matrix[T floats.Float] = Mat[T, int32]

// New converts a finalized coordinate matrix to BCSR with r x c blocks and
// the given kernel implementation class. It panics if the shape has more
// than blocks.MaxBlockElems elements (no kernel exists) or the matrix is
// not finalized.
func New[T floats.Float](m *mat.COO[T], r, c int, impl blocks.Impl) *Matrix[T] {
	return NewIx[T, int32](m, r, c, impl)
}

// NewIx is New with block start columns stored as I. The caller must
// ensure every interior start column fits I; NewCompact selects a
// fitting type automatically.
func NewIx[T floats.Float, I idx.Index](m *mat.COO[T], r, c int, impl blocks.Impl) *Mat[T, I] {
	shape := blocks.RectShape(r, c)
	if !shape.Valid() && !shape.IsUnit() {
		panic(fmt.Sprintf("bcsr: unsupported shape %dx%d", r, c))
	}
	if !m.Finalized() {
		panic("bcsr: matrix must be finalized")
	}
	a := &Mat[T, I]{
		rows: m.Rows(), cols: m.Cols(), r: r, c: c, impl: impl,
		kernel: kernels.RectIx[T, I](r, c, impl),
		nnz:    int64(m.NNZ()),
	}
	if a.kernel == nil {
		a.kernel = kernels.RectGenericIx[T, I](r, c)
	}
	a.build(m.Entries())
	return a
}

// NewCompact converts a finalized coordinate matrix to BCSR with the
// narrowest block-start-column type the matrix width permits.
func NewCompact[T floats.Float](m *mat.COO[T], r, c int, impl blocks.Impl) formats.Instance[T] {
	switch idx.FitsCols(m.Cols()) {
	case idx.W8:
		return NewIx[T, uint8](m, r, c, impl)
	case idx.W16:
		return NewIx[T, uint16](m, r, c, impl)
	default:
		return NewIx[T, int32](m, r, c, impl)
	}
}

func (a *Mat[T, I]) build(entries []mat.Entry[T]) {
	r, c := a.r, a.c
	elems := r * c
	nBlockRows := (a.rows + r - 1) / r
	a.browPtr = make([]int32, nBlockRows+1)
	// Block columns below nInterior lie wholly inside the matrix; the one
	// past them (if any) overhangs the right edge.
	nInterior := int32(a.cols / c)
	// slot[j].N is block column j's index in bcol (or in the edge arrays)
	// for the block row in slot[j].Row.
	slot := blocks.Stamps(nil, (a.cols+c-1)/c)

	var bcs []int32 // distinct block columns of the current block row
	for lo := 0; lo < len(entries); {
		// Entries are row-major sorted; process one block row at a time.
		br := entries[lo].Row / int32(r)
		hi := lo
		for hi < len(entries) && entries[hi].Row/int32(r) == br {
			hi++
		}
		bcs = bcs[:0]
		for _, e := range entries[lo:hi] {
			if j := e.Col / int32(c); slot[j].Row != br {
				slot[j].Row = br
				bcs = append(bcs, j)
			}
		}
		// Blocks are stored in ascending column order; the edge block,
		// the largest column, lands in the edge arrays.
		slices.Sort(bcs)
		for _, j := range bcs {
			if j < nInterior {
				slot[j].N = int32(len(a.bcol))
				a.bcol = append(a.bcol, I(j*int32(c)))
			} else {
				slot[j].N = int32(len(a.edgeCol))
				a.edgeBRow = append(a.edgeBRow, br)
				a.edgeCol = append(a.edgeCol, j*int32(c))
			}
		}
		a.bval = append(a.bval, make([]T, len(a.bcol)*elems-len(a.bval))...)
		a.edgeVal = append(a.edgeVal, make([]T, len(a.edgeCol)*elems-len(a.edgeVal))...)
		a.browPtr[br+1] = int32(len(a.bcol))

		for _, e := range entries[lo:hi] {
			j := e.Col / int32(c)
			pos := int(e.Row%int32(r))*c + int(e.Col-j*int32(c))
			if b := int(slot[j].N); j < nInterior {
				a.bval[b*elems+pos] = e.Val
			} else {
				a.edgeVal[b*elems+pos] = e.Val
			}
		}
		lo = hi
	}
	// browPtr entries for empty block rows: carry forward.
	for br := 0; br < nBlockRows; br++ {
		if a.browPtr[br+1] < a.browPtr[br] {
			a.browPtr[br+1] = a.browPtr[br]
		}
	}
}

// Shape returns the block shape.
func (a *Mat[T, I]) Shape() blocks.Shape { return blocks.RectShape(a.r, a.c) }

// Blocks returns the total number of stored blocks including edge blocks.
func (a *Mat[T, I]) Blocks() int64 { return int64(len(a.bcol) + len(a.edgeBRow)) }

// Padding returns the number of explicit zeros stored.
func (a *Mat[T, I]) Padding() int64 { return a.StoredScalars() - a.nnz }

// Name implements formats.Instance.
func (a *Mat[T, I]) Name() string {
	n := fmt.Sprintf("BCSR(%dx%d)", a.r, a.c) + idx.Of[I]().Suffix()
	if a.impl == blocks.Vector {
		n += "/simd"
	}
	return n
}

// Rows implements formats.Instance.
func (a *Mat[T, I]) Rows() int { return a.rows }

// Cols implements formats.Instance.
func (a *Mat[T, I]) Cols() int { return a.cols }

// NNZ implements formats.Instance.
func (a *Mat[T, I]) NNZ() int64 { return a.nnz }

// StoredScalars implements formats.Instance.
func (a *Mat[T, I]) StoredScalars() int64 {
	return int64(len(a.bval) + len(a.edgeVal))
}

// MatrixBytes implements formats.Instance.
func (a *Mat[T, I]) MatrixBytes() int64 {
	s := int64(floats.SizeOf[T]())
	return a.StoredScalars()*s +
		int64(len(a.bcol))*int64(idx.Bytes[I]()) +
		int64(len(a.edgeCol)+len(a.edgeBRow)+len(a.browPtr))*4
}

// Components implements formats.Instance.
func (a *Mat[T, I]) Components() []formats.Component {
	return []formats.Component{{
		Shape:   a.Shape(),
		Impl:    a.impl,
		Blocks:  a.Blocks(),
		WSBytes: a.MatrixBytes(),
	}}
}

// RowAlign implements formats.Instance.
func (a *Mat[T, I]) RowAlign() int { return a.r }

// RowWeights implements formats.Instance: every block contributes c stored
// scalars to each of the r rows it covers. A bottom-edge block row's ghost
// rows have their scalars redistributed over its real rows so that the
// weights sum exactly to StoredScalars.
func (a *Mat[T, I]) RowWeights() []int64 {
	w := make([]int64, a.rows)
	nBlockRows := (a.rows + a.r - 1) / a.r
	nBlocks := make([]int64, nBlockRows)
	for br := 0; br < nBlockRows; br++ {
		nBlocks[br] = int64(a.browPtr[br+1] - a.browPtr[br])
	}
	for _, br := range a.edgeBRow {
		nBlocks[br]++
	}
	for br := 0; br < nBlockRows; br++ {
		rowStart := br * a.r
		nReal := min(a.r, a.rows-rowStart)
		total := nBlocks[br] * int64(a.r*a.c)
		per, extra := total/int64(nReal), total%int64(nReal)
		for i := 0; i < nReal; i++ {
			w[rowStart+i] = per
			if int64(i) < extra {
				w[rowStart+i]++
			}
		}
	}
	return w
}

// Mul implements formats.Instance.
func (a *Mat[T, I]) Mul(x, y []T) {
	formats.CheckDims[T](a, x, y)
	floats.Fill(y, 0)
	a.MulRange(x, y, 0, a.rows)
}

// MulRange implements formats.Instance.
func (a *Mat[T, I]) MulRange(x, y []T, r0, r1 int) {
	r, c := a.r, a.c
	if r0%r != 0 || (r1%r != 0 && r1 != a.rows) {
		panic(fmt.Sprintf("bcsr: MulRange [%d,%d) not aligned to block height %d", r0, r1, r))
	}
	elems := r * c
	br0, br1 := r0/r, (r1+r-1)/r
	for br := br0; br < min(br1, a.rows/r); br++ {
		lo, hi := int(a.browPtr[br]), int(a.browPtr[br+1])
		if lo == hi {
			continue
		}
		a.kernel(a.bval[lo*elems:hi*elems], a.bcol[lo:hi], x, y[br*r:(br+1)*r])
	}
	a.mulEdges(x, y, 1, br0, br1)
}

// MulRangeMulti implements formats.Instance: the generated multi-RHS
// kernel streams each interior block row once across the k-wide panel,
// and the edge path keeps every panel column bit-identical to a
// single-vector MulRange.
func (a *Mat[T, I]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	if k == 0 {
		return
	}
	r, c := a.r, a.c
	if r0%r != 0 || (r1%r != 0 && r1 != a.rows) {
		panic(fmt.Sprintf("bcsr: MulRangeMulti [%d,%d) not aligned to block height %d", r0, r1, r))
	}
	kern := kernels.RectMultiIx[T, I](r, c, a.impl, k)
	if kern == nil {
		kern = kernels.RectGenericMultiIx[T, I](r, c)
	}
	elems := r * c
	br0, br1 := r0/r, (r1+r-1)/r
	for br := br0; br < min(br1, a.rows/r); br++ {
		lo, hi := int(a.browPtr[br]), int(a.browPtr[br+1])
		if lo == hi {
			continue
		}
		kern(a.bval[lo*elems:hi*elems], a.bcol[lo:hi], x, y[br*r*k:(br+1)*r*k], k)
	}
	a.mulEdges(x, y, k, br0, br1)
}

// mulEdges is the clipped path for the blocks of block rows [br0, br1)
// that the unrolled kernels cannot take, over a k-wide panel (k = 1 is
// the single vector): those of a bottom block row shorter than r, whose
// kernel would write rows that do not exist, and the blocks overhanging
// the right edge, whose kernel would read x out of bounds. Each panel
// column gets its own accumulator, summed in the single-vector order. At
// most one block row per matrix is a bottom edge; routing it through the
// kernel would need a scratch output that escapes to the heap and costs
// an allocation on every multiply.
func (a *Mat[T, I]) mulEdges(x, y []T, k, br0, br1 int) {
	r, c := a.r, a.c
	elems := r * c
	clipped := func(rowStart, col int, v []T) {
		for bi := 0; bi < r && rowStart+bi < a.rows; bi++ {
			for l := 0; l < k; l++ {
				var acc T
				for bj := 0; bj < c && col+bj < a.cols; bj++ {
					acc += v[bi*c+bj] * x[(col+bj)*k+l]
				}
				y[(rowStart+bi)*k+l] += acc
			}
		}
	}
	if br := a.rows / r; br < br1 {
		for b := a.browPtr[br]; b < a.browPtr[br+1]; b++ {
			clipped(br*r, int(a.bcol[b]), a.bval[int(b)*elems:int(b+1)*elems])
		}
	}
	for ei, br := range a.edgeBRow {
		if int(br) >= br0 && int(br) < br1 {
			clipped(int(br)*r, int(a.edgeCol[ei]), a.edgeVal[ei*elems:(ei+1)*elems])
		}
	}
}

var (
	_ formats.Instance[float32] = (*Matrix[float32])(nil)
	_ formats.Instance[float32] = (*Mat[float32, uint16])(nil)
	_ formats.Instance[float32] = (*Mat[float32, uint8])(nil)
)

// WithImpl implements formats.Instance: a view over the same arrays with
// a different kernel implementation class.
func (a *Mat[T, I]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	b := *a
	b.impl = impl
	b.kernel = kernels.RectIx[T, I](b.r, b.c, impl)
	if b.kernel == nil {
		b.kernel = kernels.RectGenericIx[T, I](b.r, b.c)
	}
	return &b
}
