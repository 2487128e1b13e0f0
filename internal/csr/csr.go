// Package csr implements the Compressed Sparse Row format, the baseline
// storage format of the paper (Barrett et al. [2]) and the remainder
// container of the decomposed blocked formats.
//
// CSR stores an n x m matrix with nnz nonzeros in three arrays: val (nnz
// values), colInd (nnz column indices) and rowPtr (n+1 4-byte row
// pointers into val). The paper's baseline stores colInd as 4-byte
// integers; the compressed variants (NewCompact) store it as uint16 or
// uint8 when the matrix width permits, shedding index bytes from the
// matrix stream the MEM model charges for.
package csr

import (
	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/idx"
	"blockspmv/internal/mat"
)

// Mat is a sparse matrix in CSR format with column indices stored as I,
// together with the kernel implementation class it multiplies with.
type Mat[T floats.Float, I idx.Index] struct {
	rows, cols int
	rowPtr     []int32
	colInd     []I
	val        []T
	impl       blocks.Impl
}

// Matrix is the paper's baseline CSR instantiation: 4-byte column
// indices.
type Matrix[T floats.Float] = Mat[T, int32]

// FromCOO converts a finalized coordinate matrix to baseline (int32
// index) CSR with the given kernel implementation class.
func FromCOO[T floats.Float](m *mat.COO[T], impl blocks.Impl) *Matrix[T] {
	return FromCOOIx[T, int32](m, impl)
}

// FromCOOIx converts a finalized coordinate matrix to CSR with column
// indices stored as I. The caller must ensure every column index fits I;
// NewCompact selects a fitting type automatically.
func FromCOOIx[T floats.Float, I idx.Index](m *mat.COO[T], impl blocks.Impl) *Mat[T, I] {
	if !m.Finalized() {
		panic("csr: matrix must be finalized")
	}
	a := &Mat[T, I]{
		rows:   m.Rows(),
		cols:   m.Cols(),
		rowPtr: make([]int32, m.Rows()+1),
		colInd: make([]I, m.NNZ()),
		val:    make([]T, m.NNZ()),
		impl:   impl,
	}
	for i, e := range m.Entries() {
		a.rowPtr[e.Row+1]++
		a.colInd[i] = I(e.Col)
		a.val[i] = e.Val
	}
	for r := 0; r < a.rows; r++ {
		a.rowPtr[r+1] += a.rowPtr[r]
	}
	return a
}

// NewCompact converts a finalized coordinate matrix to CSR with the
// narrowest column-index type the matrix width permits: uint8 up to 256
// columns, uint16 up to 65536, int32 beyond.
func NewCompact[T floats.Float](m *mat.COO[T], impl blocks.Impl) formats.Instance[T] {
	switch idx.FitsCols(m.Cols()) {
	case idx.W8:
		return FromCOOIx[T, uint8](m, impl)
	case idx.W16:
		return FromCOOIx[T, uint16](m, impl)
	default:
		return FromCOOIx[T, int32](m, impl)
	}
}

// Name implements formats.Instance.
func (a *Mat[T, I]) Name() string {
	n := "CSR" + idx.Of[I]().Suffix()
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
func (a *Mat[T, I]) NNZ() int64 { return int64(len(a.val)) }

// StoredScalars implements formats.Instance; CSR stores no padding.
func (a *Mat[T, I]) StoredScalars() int64 { return int64(len(a.val)) }

// MatrixBytes implements formats.Instance.
func (a *Mat[T, I]) MatrixBytes() int64 {
	s := int64(floats.SizeOf[T]())
	return int64(len(a.val))*(s+int64(idx.Bytes[I]())) + int64(len(a.rowPtr))*4
}

// Components implements formats.Instance. CSR is the degenerate blocking
// method with 1x1 blocks and nb = nnz (Section IV).
func (a *Mat[T, I]) Components() []formats.Component {
	return []formats.Component{{
		Shape:   blocks.RectShape(1, 1),
		Impl:    a.impl,
		Blocks:  int64(len(a.val)),
		WSBytes: a.MatrixBytes(),
	}}
}

// RowAlign implements formats.Instance.
func (a *Mat[T, I]) RowAlign() int { return 1 }

// RowWeights implements formats.Instance.
func (a *Mat[T, I]) RowWeights() []int64 {
	w := make([]int64, a.rows)
	for r := 0; r < a.rows; r++ {
		w[r] = int64(a.rowPtr[r+1] - a.rowPtr[r])
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
	if a.impl == blocks.Vector {
		a.mulRangeVector(x, y, r0, r1)
		return
	}
	a.mulRangeScalar(x, y, r0, r1)
}

func (a *Mat[T, I]) mulRangeScalar(x, y []T, r0, r1 int) {
	rowPtr, colInd, val := a.rowPtr, a.colInd, a.val
	for r := r0; r < r1; r++ {
		var acc T
		for i := rowPtr[r]; i < rowPtr[r+1]; i++ {
			acc += val[i] * x[colInd[i]]
		}
		y[r] += acc
	}
}

// MulRangeMulti implements formats.Instance. The scalar path retires
// the k panel columns of a row inside the nonzero loop (k <= 8 keeps
// the accumulators in registers via a fixed-size array), so the val and
// colInd streams — the traffic the MEM model says dominates — are read
// once regardless of k; wider panels fall back to a per-column walk of
// the cache-resident row.
func (a *Mat[T, I]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	if k == 0 {
		return
	}
	if k == 1 {
		// A 1-wide panel has the exact memory layout of the vectors
		// themselves, so the single-vector kernels apply directly.
		a.MulRange(x, y, r0, r1)
		return
	}
	if a.impl == blocks.Vector {
		a.mulRangeMultiVector(x, y, k, r0, r1)
		return
	}
	switch k {
	case 2:
		a.mulRangeMultiScalar2(x, y, r0, r1)
		return
	case 4:
		a.mulRangeMultiScalar4(x, y, r0, r1)
		return
	case 8:
		a.mulRangeMultiScalar8(x, y, r0, r1)
		return
	}
	if k <= 8 {
		a.mulRangeMultiScalarReg(x, y, k, r0, r1)
		return
	}
	rowPtr, colInd, val := a.rowPtr, a.colInd, a.val
	for r := r0; r < r1; r++ {
		start, end := rowPtr[r], rowPtr[r+1]
		for l := 0; l < k; l++ {
			var acc T
			for i := start; i < end; i++ {
				acc += val[i] * x[int(colInd[i])*k+l]
			}
			y[r*k+l] += acc
		}
	}
}

// mulRangeMultiScalarReg is the register-blocked scalar panel kernel
// for k <= 8: one accumulator per panel column, each fed in the same
// per-nonzero order as mulRangeScalar, so column l of the result is
// bit-identical to a single-vector multiply by x column l.
func (a *Mat[T, I]) mulRangeMultiScalarReg(x, y []T, k, r0, r1 int) {
	rowPtr, colInd, val := a.rowPtr, a.colInd, a.val
	var accArr [8]T
	acc := accArr[:k]
	for r := r0; r < r1; r++ {
		for l := range acc {
			acc[l] = 0
		}
		for i := rowPtr[r]; i < rowPtr[r+1]; i++ {
			v := val[i]
			xs := x[int(colInd[i])*k : int(colInd[i])*k+k]
			for l := range acc {
				acc[l] += v * xs[l]
			}
		}
		ys := y[r*k : r*k+k]
		for l := range acc {
			ys[l] += acc[l]
		}
	}
}

// mulRangeMultiScalar2, -4 and -8 are the fully unrolled panel kernels
// for the register-blocked widths: every accumulator is a named local,
// so the compiler keeps the whole panel row in registers and the val
// and colInd streams are read once for all k columns. Per column the
// FMA order matches mulRangeScalar exactly.
func (a *Mat[T, I]) mulRangeMultiScalar2(x, y []T, r0, r1 int) {
	rowPtr, colInd, val := a.rowPtr, a.colInd, a.val
	for r := r0; r < r1; r++ {
		var a0, a1 T
		for i := rowPtr[r]; i < rowPtr[r+1]; i++ {
			v := val[i]
			c := int(colInd[i]) * 2
			xs := x[c : c+2]
			a0 += v * xs[0]
			a1 += v * xs[1]
		}
		ys := y[r*2 : r*2+2]
		ys[0] += a0
		ys[1] += a1
	}
}

func (a *Mat[T, I]) mulRangeMultiScalar4(x, y []T, r0, r1 int) {
	rowPtr, colInd, val := a.rowPtr, a.colInd, a.val
	for r := r0; r < r1; r++ {
		var a0, a1, a2, a3 T
		for i := rowPtr[r]; i < rowPtr[r+1]; i++ {
			v := val[i]
			c := int(colInd[i]) * 4
			xs := x[c : c+4]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
		}
		ys := y[r*4 : r*4+4]
		ys[0] += a0
		ys[1] += a1
		ys[2] += a2
		ys[3] += a3
	}
}

func (a *Mat[T, I]) mulRangeMultiScalar8(x, y []T, r0, r1 int) {
	rowPtr, colInd, val := a.rowPtr, a.colInd, a.val
	for r := r0; r < r1; r++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 T
		for i := rowPtr[r]; i < rowPtr[r+1]; i++ {
			v := val[i]
			c := int(colInd[i]) * 8
			xs := x[c : c+8]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
			a4 += v * xs[4]
			a5 += v * xs[5]
			a6 += v * xs[6]
			a7 += v * xs[7]
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

// mulRangeMultiVector replays the lane-structured kernel per panel
// column; the row's val/colInd entries stay cache-hot across the k
// passes, so the memory-level matrix stream is still paid once.
func (a *Mat[T, I]) mulRangeMultiVector(x, y []T, k, r0, r1 int) {
	rowPtr, colInd, val := a.rowPtr, a.colInd, a.val
	for r := r0; r < r1; r++ {
		start, end := int(rowPtr[r]), int(rowPtr[r+1])
		for l := 0; l < k; l++ {
			var a0, a1, a2, a3 T
			i := start
			for ; i+4 <= end; i += 4 {
				a0 += val[i] * x[int(colInd[i])*k+l]
				a1 += val[i+1] * x[int(colInd[i+1])*k+l]
				a2 += val[i+2] * x[int(colInd[i+2])*k+l]
				a3 += val[i+3] * x[int(colInd[i+3])*k+l]
			}
			for ; i < end; i++ {
				a0 += val[i] * x[int(colInd[i])*k+l]
			}
			y[r*k+l] += a0 + a1 + a2 + a3
		}
	}
}

// mulRangeVector is the lane-structured CSR kernel: four independent
// accumulator chains per row, the stand-in for the paper's SIMD CSR
// implementation (see DESIGN.md).
func (a *Mat[T, I]) mulRangeVector(x, y []T, r0, r1 int) {
	rowPtr, colInd, val := a.rowPtr, a.colInd, a.val
	for r := r0; r < r1; r++ {
		start, end := int(rowPtr[r]), int(rowPtr[r+1])
		var a0, a1, a2, a3 T
		i := start
		for ; i+4 <= end; i += 4 {
			a0 += val[i] * x[colInd[i]]
			a1 += val[i+1] * x[colInd[i+1]]
			a2 += val[i+2] * x[colInd[i+2]]
			a3 += val[i+3] * x[colInd[i+3]]
		}
		for ; i < end; i++ {
			a0 += val[i] * x[colInd[i]]
		}
		y[r] += a0 + a1 + a2 + a3
	}
}

// ZeroColInd returns a copy of the matrix whose column indices are all
// zero, reproducing the Section V.B latency probe: the value stream and row
// structure are unchanged but every input-vector access hits x[0], so the
// timing difference against the original isolates the cost of irregular
// accesses on the input vector.
func (a *Mat[T, I]) ZeroColInd() *Mat[T, I] {
	z := &Mat[T, I]{
		rows:   a.rows,
		cols:   a.cols,
		rowPtr: a.rowPtr,
		colInd: make([]I, len(a.colInd)),
		val:    a.val,
		impl:   a.impl,
	}
	return z
}

// Pattern returns the sparsity pattern of the matrix. For the baseline
// index width the pattern shares the matrix's arrays; narrow widths
// widen a copy.
func (a *Mat[T, I]) Pattern() *mat.Pattern {
	ci, ok := any(a.colInd).([]int32)
	if !ok {
		ci = make([]int32, len(a.colInd))
		for i, c := range a.colInd {
			ci[i] = int32(c)
		}
	}
	return &mat.Pattern{Rows: a.rows, Cols: a.cols, RowPtr: a.rowPtr, ColInd: ci}
}

var (
	_ formats.Instance[float64] = (*Matrix[float64])(nil)
	_ formats.Instance[float64] = (*Mat[float64, uint16])(nil)
	_ formats.Instance[float64] = (*Mat[float64, uint8])(nil)
)

// WithImpl implements formats.Instance: a view over the same arrays with
// a different kernel implementation class.
func (a *Mat[T, I]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	b := *a
	b.impl = impl
	return &b
}
