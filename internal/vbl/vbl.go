// Package vbl implements the one-dimensional Variable Block Length format
// of Pinar & Heath [12].
//
// 1D-VBL stores maximal horizontal runs of consecutive nonzeros as
// variable-size blocks. The paper's four arrays hold the matrix: val (the
// nonzero values), rowPtr (n+1 4-byte pointers into val, as in CSR), bcol
// (the 4-byte starting column of each block) and bsize (the size of each
// block in a single byte), plus a rowBlk seed index (first block of each
// row) that lets the parallel executor start a multiply at any row. The
// 1-byte size limits blocks to 255 elements; longer runs are split into
// 255-element chunks, which the paper notes is rare. NewDP replaces run
// detection with the per-row cost-model DP of internal/partition, which
// may merge runs across small gaps (storing explicit zero fill) when that
// shrinks the exact stream.
package vbl

import (
	"fmt"

	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/partition"
)

// MaxBlockLen is the largest representable block: sizes are stored in one
// byte.
const MaxBlockLen = partition.VBLMaxSpan

// Matrix is a sparse matrix in 1D-VBL format.
type Matrix[T floats.Float] struct {
	rows, cols int
	val        []T
	rowPtr     []int32 // len rows+1, indexes val
	bcol       []int32 // starting column per block
	bsize      []uint8 // block sizes, 1..255

	// rowBlk is an auxiliary index (first block of each row) that seeds
	// MulRange at partition boundaries. The sequential multiply streams
	// blocks with a running cursor and rarely reads it, but it is resident
	// state the structure carries, so MatrixBytes counts it (the paper's
	// four-array layout predates the range-parallel executor that needs
	// the seed index).
	rowBlk []int32

	// nnz is the original nonzero count; val may additionally hold
	// explicit zero fill when the DP partition merges runs across small
	// gaps (NewDP).
	nnz int64

	// dp marks instances whose blocks come from the cost-model DP of
	// internal/partition rather than run detection.
	dp bool

	impl blocks.Impl
}

// New converts a finalized coordinate matrix to 1D-VBL with the paper's
// run detection: each row's maximal runs of consecutive nonzeros, split
// into blocks of at most MaxBlockLen.
func New[T floats.Float](m *mat.COO[T], impl blocks.Impl) *Matrix[T] {
	return build(m, impl, false)
}

// NewDP converts a finalized coordinate matrix to 1D-VBL with block
// boundaries chosen by the per-row dynamic program of internal/partition,
// which minimizes each row's exact stream bytes: runs may be merged
// across small gaps (storing explicit zero fill) when the fill costs less
// than the saved per-block indices — never worse than New's run
// detection, and only actually different for small scalar types.
func NewDP[T floats.Float](m *mat.COO[T], impl blocks.Impl) *Matrix[T] {
	return build(m, impl, true)
}

// build lays out, row by row, the blocks internal/partition yields: the
// runs, which hold exactly the row's entries in order, or with dp the
// DP's blocks (appendDPRow).
func build[T floats.Float](m *mat.COO[T], impl blocks.Impl, dp bool) *Matrix[T] {
	if !m.Finalized() {
		panic("vbl: matrix must be finalized")
	}
	a := &Matrix[T]{
		rows:   m.Rows(),
		cols:   m.Cols(),
		val:    make([]T, 0, m.NNZ()),
		rowPtr: make([]int32, m.Rows()+1),
		rowBlk: make([]int32, m.Rows()+1),
		nnz:    int64(m.NNZ()),
		dp:     dp,
		impl:   impl,
	}
	entries := m.Entries()
	var cols []int32
	for i := 0; i < len(entries); {
		row := entries[i].Row
		cols = cols[:0]
		for j := i; j < len(entries) && entries[j].Row == row; j++ {
			cols = append(cols, entries[j].Col)
		}
		es := entries[i : i+len(cols)]
		i += len(es)
		if dp {
			a.appendDPRow(es, cols)
		} else {
			a.bcol, a.bsize = partition.VBLRuns(a.bcol, a.bsize, cols)
			for _, e := range es {
				a.val = append(a.val, e.Val)
			}
		}
		a.rowPtr[row+1] = int32(len(a.val))
		a.rowBlk[row+1] = int32(len(a.bcol))
	}
	for r := 0; r < a.rows; r++ {
		if a.rowPtr[r+1] < a.rowPtr[r] {
			a.rowPtr[r+1] = a.rowPtr[r]
			a.rowBlk[r+1] = a.rowBlk[r]
		}
	}
	return a
}

// appendDPRow appends the DP's blocks of the row whose entries are es and
// columns cols. The DP may merge runs across gaps, so each block is
// zero-filled and the entries it covers scattered into it.
func (a *Matrix[T]) appendDPRow(es []mat.Entry[T], cols []int32) {
	b := len(a.bcol)
	a.bcol, a.bsize = partition.VBLRowBlocks(a.bcol, a.bsize, cols, floats.SizeOf[T]())
	for ; b < len(a.bcol); b++ {
		start, end := a.bcol[b], a.bcol[b]+int32(a.bsize[b])
		base := len(a.val)
		a.val = append(a.val, make([]T, end-start)...)
		for ; len(es) > 0 && es[0].Col < end; es = es[1:] {
			a.val[base+int(es[0].Col-start)] = es[0].Val
		}
	}
}

// Blocks returns the number of variable-length blocks.
func (a *Matrix[T]) Blocks() int64 { return int64(len(a.bcol)) }

// AvgBlockLen returns the mean block length, a structure diagnostic.
func (a *Matrix[T]) AvgBlockLen() float64 {
	if len(a.bcol) == 0 {
		return 0
	}
	return float64(len(a.val)) / float64(len(a.bcol))
}

// Name implements formats.Instance.
func (a *Matrix[T]) Name() string {
	n := "1D-VBL"
	if a.dp {
		n += "-DP"
	}
	if a.impl == blocks.Vector {
		n += "/simd"
	}
	return n
}

// Rows implements formats.Instance.
func (a *Matrix[T]) Rows() int { return a.rows }

// Cols implements formats.Instance.
func (a *Matrix[T]) Cols() int { return a.cols }

// NNZ implements formats.Instance.
func (a *Matrix[T]) NNZ() int64 { return a.nnz }

// StoredScalars implements formats.Instance: the stored values including
// any zero fill a DP partition introduced (run detection stores exactly
// NNZ).
func (a *Matrix[T]) StoredScalars() int64 { return int64(len(a.val)) }

// MatrixBytes implements formats.Instance. It covers every array of the
// structure: val, rowPtr, bcol, the 1-byte block sizes and the rowBlk
// seed index.
func (a *Matrix[T]) MatrixBytes() int64 {
	s := int64(floats.SizeOf[T]())
	return int64(len(a.val))*s + int64(len(a.rowPtr))*4 +
		int64(len(a.bcol))*4 + int64(len(a.bsize)) + int64(len(a.rowBlk))*4
}

// Components implements formats.Instance. Variable-size blocks have no
// fixed shape, so the component reports the degenerate 1x1 shape with
// Blocks equal to the stored scalars — the per-scalar normalization the
// profiling layer uses for the VBL kernel variant, mirroring how CSR is
// modelled as 1x1 blocking with nb = nnz.
func (a *Matrix[T]) Components() []formats.Component {
	return []formats.Component{{
		Shape:   blocks.RectShape(1, 1),
		Impl:    a.impl,
		Blocks:  a.StoredScalars(),
		WSBytes: a.MatrixBytes(),
		Variant: blocks.VBL,
	}}
}

// RowAlign implements formats.Instance.
func (a *Matrix[T]) RowAlign() int { return 1 }

// RowWeights implements formats.Instance.
func (a *Matrix[T]) RowWeights() []int64 {
	w := make([]int64, a.rows)
	for r := 0; r < a.rows; r++ {
		w[r] = int64(a.rowPtr[r+1] - a.rowPtr[r])
	}
	return w
}

// Mul implements formats.Instance.
func (a *Matrix[T]) Mul(x, y []T) {
	formats.CheckDims[T](a, x, y)
	floats.Fill(y, 0)
	a.MulRange(x, y, 0, a.rows)
}

// MulRange implements formats.Instance.
func (a *Matrix[T]) MulRange(x, y []T, r0, r1 int) {
	if r0 < 0 || r1 > a.rows || r0 > r1 {
		panic(fmt.Sprintf("vbl: MulRange [%d,%d) out of bounds", r0, r1))
	}
	mulRange(a, a.bsize, x, y, r0, r1)
}

// mulRange is MulRange's kernel. The kernels take the block sizes,
// a.bsize, as an argument: read from a inside the kernel, they cost the
// loop more register spills and the 3×3-block Laplacian multiplied a few
// percent slower. A block of one scalar (the unit run, nearly every
// block of a scattered matrix) adds its rounded product straight to the
// row sum; the conversion T(...) rounds the product, so the compiler
// cannot fuse it with the add into an FMA. That is bit for bit the
// longer path's result: there a unit block's sum is v·x + 0 + 0 + 0,
// which differs from v·x only by turning −0 into +0, and the row sum
// starts at +0 and can never become −0, so adding −0 or +0 leaves it the
// same. Longer blocks keep the four-chain order, and are tested for
// first: with the unit test first, a matrix of short runs and no unit
// ones (a 3×3-block Laplacian) multiplied a few percent slower than with
// the four-chain loop alone.
func mulRange[T floats.Float](a *Matrix[T], size []uint8, x, y []T, r0, r1 int) {
	val, bcol := a.val, a.bcol
	bi := int(a.rowBlk[r0])
	vi := int(a.rowPtr[r0])
	for r := r0; r < r1; r++ {
		end := int(a.rowPtr[r+1])
		var acc T
		for vi < end {
			c := int(bcol[bi])
			n := int(size[bi])
			bi++
			if n > 1 {
				v := val[vi : vi+n]
				xs := x[c : c+n]
				k := 0
				var a0, a1, a2, a3 T
				for ; k+4 <= n; k += 4 {
					a0 += v[k] * xs[k]
					a1 += v[k+1] * xs[k+1]
					a2 += v[k+2] * xs[k+2]
					a3 += v[k+3] * xs[k+3]
				}
				for ; k < n; k++ {
					a0 += v[k] * xs[k]
				}
				acc += a0 + a1 + a2 + a3
				vi += n
				continue
			}
			acc += T(val[vi] * x[c])
			vi++
		}
		y[r] += acc
	}
}

// blockDot is one block's sum against column l of a k-wide panel whose
// block starts at column c, in MulRange's four-chain order.
func blockDot[T floats.Float](v, x []T, c, k, l int) T {
	j := 0
	var a0, a1, a2, a3 T
	for ; j+4 <= len(v); j += 4 {
		a0 += v[j] * x[(c+j)*k+l]
		a1 += v[j+1] * x[(c+j+1)*k+l]
		a2 += v[j+2] * x[(c+j+2)*k+l]
		a3 += v[j+3] * x[(c+j+3)*k+l]
	}
	for ; j < len(v); j++ {
		a0 += v[j] * x[(c+j)*k+l]
	}
	return a0 + a1 + a2 + a3
}

// MulRangeMulti implements formats.Instance. Up to k = 8 each row's
// blocks are walked once for the whole panel, every column summing in
// its own accumulator in MulRange's order (a unit block adds its rounded
// product, a longer one its four-chain sum), so column l of the result
// is bit for bit a MulRange by column l of x. k = 2, 4 and 8 keep their
// accumulators in named variables, which the compiler holds in
// registers, k = 3, 5, 6 and 7 in an array, and wider panels replay each
// row per column.
func (a *Matrix[T]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	if r0 < 0 || r1 > a.rows || r0 > r1 {
		panic(fmt.Sprintf("vbl: MulRangeMulti [%d,%d) out of bounds", r0, r1))
	}
	switch {
	case k == 0:
	case k == 1:
		mulRange(a, a.bsize, x, y, r0, r1)
	case k == 2:
		mulRangeMulti2(a, a.bsize, x, y, r0, r1)
	case k == 4:
		mulRangeMulti4(a, a.bsize, x, y, r0, r1)
	case k == 8:
		mulRangeMulti8(a, a.bsize, x, y, r0, r1)
	case k < 8:
		mulRangeMultiReg(a, a.bsize, x, y, k, r0, r1)
	default:
		mulRangeMultiReplay(a, a.bsize, x, y, k, r0, r1)
	}
}

func mulRangeMulti2[T floats.Float](a *Matrix[T], size []uint8, x, y []T, r0, r1 int) {
	val, bcol := a.val, a.bcol
	bi := int(a.rowBlk[r0])
	vi := int(a.rowPtr[r0])
	for r := r0; r < r1; r++ {
		end := int(a.rowPtr[r+1])
		var a0, a1 T
		for vi < end {
			c := int(bcol[bi])
			n := int(size[bi])
			bi++
			if n > 1 {
				v := val[vi : vi+n]
				a0 += blockDot(v, x, c, 2, 0)
				a1 += blockDot(v, x, c, 2, 1)
				vi += n
				continue
			}
			v := val[vi]
			xs := x[c*2 : c*2+2]
			a0 += T(v * xs[0])
			a1 += T(v * xs[1])
			vi++
		}
		ys := y[r*2 : r*2+2]
		ys[0] += a0
		ys[1] += a1
	}
}

func mulRangeMulti4[T floats.Float](a *Matrix[T], size []uint8, x, y []T, r0, r1 int) {
	val, bcol := a.val, a.bcol
	bi := int(a.rowBlk[r0])
	vi := int(a.rowPtr[r0])
	for r := r0; r < r1; r++ {
		end := int(a.rowPtr[r+1])
		var a0, a1, a2, a3 T
		for vi < end {
			c := int(bcol[bi])
			n := int(size[bi])
			bi++
			if n > 1 {
				v := val[vi : vi+n]
				a0 += blockDot(v, x, c, 4, 0)
				a1 += blockDot(v, x, c, 4, 1)
				a2 += blockDot(v, x, c, 4, 2)
				a3 += blockDot(v, x, c, 4, 3)
				vi += n
				continue
			}
			v := val[vi]
			xs := x[c*4 : c*4+4]
			a0 += T(v * xs[0])
			a1 += T(v * xs[1])
			a2 += T(v * xs[2])
			a3 += T(v * xs[3])
			vi++
		}
		ys := y[r*4 : r*4+4]
		ys[0] += a0
		ys[1] += a1
		ys[2] += a2
		ys[3] += a3
	}
}

func mulRangeMulti8[T floats.Float](a *Matrix[T], size []uint8, x, y []T, r0, r1 int) {
	val, bcol := a.val, a.bcol
	bi := int(a.rowBlk[r0])
	vi := int(a.rowPtr[r0])
	for r := r0; r < r1; r++ {
		end := int(a.rowPtr[r+1])
		var a0, a1, a2, a3, a4, a5, a6, a7 T
		for vi < end {
			c := int(bcol[bi])
			n := int(size[bi])
			bi++
			if n > 1 {
				v := val[vi : vi+n]
				a0 += blockDot(v, x, c, 8, 0)
				a1 += blockDot(v, x, c, 8, 1)
				a2 += blockDot(v, x, c, 8, 2)
				a3 += blockDot(v, x, c, 8, 3)
				a4 += blockDot(v, x, c, 8, 4)
				a5 += blockDot(v, x, c, 8, 5)
				a6 += blockDot(v, x, c, 8, 6)
				a7 += blockDot(v, x, c, 8, 7)
				vi += n
				continue
			}
			v := val[vi]
			xs := x[c*8 : c*8+8]
			a0 += T(v * xs[0])
			a1 += T(v * xs[1])
			a2 += T(v * xs[2])
			a3 += T(v * xs[3])
			a4 += T(v * xs[4])
			a5 += T(v * xs[5])
			a6 += T(v * xs[6])
			a7 += T(v * xs[7])
			vi++
		}
		ys := y[r*8 : r*8+8]
		ys[0] += a0
		ys[1] += a1
		ys[2] += a2
		ys[3] += a3
		ys[4] += a4
		ys[5] += a5
		ys[6] += a6
		ys[7] += a7
	}
}

// mulRangeMultiReg is the one-walk panel kernel for the other widths
// below 8, with the accumulators in an array.
func mulRangeMultiReg[T floats.Float](a *Matrix[T], size []uint8, x, y []T, k, r0, r1 int) {
	val, bcol := a.val, a.bcol
	bi := int(a.rowBlk[r0])
	vi := int(a.rowPtr[r0])
	var accArr [8]T
	acc := accArr[:k]
	for r := r0; r < r1; r++ {
		end := int(a.rowPtr[r+1])
		clear(acc)
		for vi < end {
			c := int(bcol[bi])
			n := int(size[bi])
			bi++
			if n > 1 {
				v := val[vi : vi+n]
				for l := range acc {
					acc[l] += blockDot(v, x, c, k, l)
				}
				vi += n
				continue
			}
			v := val[vi]
			xs := x[c*k : c*k+k]
			for l := range acc {
				acc[l] += T(v * xs[l])
			}
			vi++
		}
		ys := y[r*k : r*k+k]
		for l := range acc {
			ys[l] += acc[l]
		}
	}
}

// mulRangeMultiReplay replays each row's block walk per panel column from
// the row's saved cursors; the row's values and block metadata stay
// cache-resident across the k passes.
func mulRangeMultiReplay[T floats.Float](a *Matrix[T], size []uint8, x, y []T, k, r0, r1 int) {
	val, bcol := a.val, a.bcol
	for r := r0; r < r1; r++ {
		vi0, end := int(a.rowPtr[r]), int(a.rowPtr[r+1])
		bi0 := int(a.rowBlk[r])
		for l := 0; l < k; l++ {
			vi, bi := vi0, bi0
			var acc T
			for vi < end {
				c := int(bcol[bi])
				n := int(size[bi])
				bi++
				if n > 1 {
					acc += blockDot(val[vi:vi+n], x, c, k, l)
					vi += n
					continue
				}
				acc += T(val[vi] * x[c*k+l])
				vi++
			}
			y[r*k+l] += acc
		}
	}
}

var _ formats.Instance[float64] = (*Matrix[float64])(nil)

// WithImpl implements formats.Instance. 1D-VBL has a single kernel; the
// class only affects the instance name.
func (a *Matrix[T]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	b := *a
	b.impl = impl
	return &b
}
