// Package csrdu implements CSR-DU ("delta units"), a compressed-index
// CSR variant after Kourtis, Goumas & Koziris: instead of one 4-byte
// column index per nonzero, each row stores the gaps between consecutive
// columns, grouped into units of equal byte width. A unit is a 2-byte
// header (width code, delta count) followed by up to 255 little-endian
// deltas of 1, 2 or 4 bytes; the first delta of a row is its first
// absolute column. Locally dense rows compress to about one byte per
// nonzero of index data, a 4x reduction of the index stream the MEM
// model charges for.
//
// The decode+multiply kernels live in internal/kernels (du_gen.go)
// alongside the blocked kernels, in a Scalar and a lane-structured
// Vector variant.
package csrdu

import (
	"encoding/binary"

	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/kernels"
	"blockspmv/internal/mat"
)

// maxUnitLen is the largest number of deltas one unit can hold: the
// count must fit its single header byte.
const maxUnitLen = 255

// headerBytes is the per-unit header size: one width-code byte plus one
// count byte.
const headerBytes = 2

// Matrix is a sparse matrix in CSR-DU format together with the kernel
// implementation class it multiplies with.
type Matrix[T floats.Float] struct {
	rows, cols int
	val        []T
	rowPtr     []int32 // len rows+1, indexes val
	stream     []byte  // concatenated delta units of all rows
	rowByte    []int32 // len rows+1, byte offset of each row's units in stream
	impl       blocks.Impl
	// kern maps a unit's width code (0, 1, 2 for 1-, 2-, 4-byte deltas)
	// to its decode+multiply kernel; kernMulti holds the panel variants.
	kern      [3]kernels.DeltaUnitKernel[T]
	kernMulti [3]kernels.DeltaUnitMultiKernel[T]
}

// New converts a finalized coordinate matrix to CSR-DU with the given
// kernel implementation class.
func New[T floats.Float](m *mat.COO[T], impl blocks.Impl) *Matrix[T] {
	if !m.Finalized() {
		panic("csrdu: matrix must be finalized")
	}
	a := &Matrix[T]{
		rows:    m.Rows(),
		cols:    m.Cols(),
		val:     make([]T, 0, m.NNZ()),
		rowPtr:  make([]int32, m.Rows()+1),
		rowByte: make([]int32, m.Rows()+1),
		impl:    impl,
	}
	a.setKernels(impl)

	entries := m.Entries()
	var cols []int32
	row := 0
	flush := func(upto int) {
		for ; row < upto; row++ {
			a.rowPtr[row+1] = a.rowPtr[row]
			a.rowByte[row+1] = a.rowByte[row]
		}
	}
	for lo := 0; lo < len(entries); {
		r := int(entries[lo].Row)
		hi := lo
		cols = cols[:0]
		for hi < len(entries) && int(entries[hi].Row) == r {
			cols = append(cols, entries[hi].Col)
			a.val = append(a.val, entries[hi].Val)
			hi++
		}
		flush(r)
		a.encodeRow(cols)
		a.rowPtr[r+1] = int32(len(a.val))
		a.rowByte[r+1] = int32(len(a.stream))
		row = r + 1
		lo = hi
	}
	flush(a.rows)
	return a
}

func (a *Matrix[T]) setKernels(impl blocks.Impl) {
	for code := 0; code < 3; code++ {
		a.kern[code] = kernels.DeltaUnit[T](1<<code, impl)
		a.kernMulti[code] = kernels.DeltaUnitMulti[T](1<<code, impl)
	}
}

// widthCode classifies a delta into its unit width class: 0 for 1-byte
// deltas (< 256), 1 for 2-byte (< 65536), 2 for 4-byte.
func widthCode(d int32) int {
	switch {
	case d < 1<<8:
		return 0
	case d < 1<<16:
		return 1
	default:
		return 2
	}
}

// delta returns the i-th delta of a row's sorted column stream: the
// absolute first column for i = 0, the gap to the previous column after.
func delta(cols []int32, i int) int32 {
	if i == 0 {
		return cols[0]
	}
	return cols[i] - cols[i-1]
}

// forEachUnit partitions one row's column stream into maximal runs of
// same-width deltas holding at most maxUnitLen deltas each, calling fn
// with the run's width code and delta index range [lo, hi). Encoding,
// size accounting and the construction-free model stats all walk the
// stream through this single grouping.
func forEachUnit(cols []int32, fn func(code, lo, hi int)) {
	for lo := 0; lo < len(cols); {
		code := widthCode(delta(cols, lo))
		hi := lo + 1
		for hi < len(cols) && hi-lo < maxUnitLen && widthCode(delta(cols, hi)) == code {
			hi++
		}
		fn(code, lo, hi)
		lo = hi
	}
}

// encodeRow appends the delta units of one row's sorted column stream.
func (a *Matrix[T]) encodeRow(cols []int32) {
	forEachUnit(cols, func(code, lo, hi int) {
		a.stream = append(a.stream, byte(code), byte(hi-lo))
		for i := lo; i < hi; i++ {
			d := uint32(delta(cols, i))
			switch code {
			case 0:
				a.stream = append(a.stream, byte(d))
			case 1:
				a.stream = binary.LittleEndian.AppendUint16(a.stream, uint16(d))
			default:
				a.stream = binary.LittleEndian.AppendUint32(a.stream, d)
			}
		}
	})
}

// StreamBytes returns the exact encoded size of the pattern's column
// stream without building the matrix, for construction-free model
// stats: the candidate enumeration prices CSR-DU with this plus the
// value and pointer arrays.
func StreamBytes(p *mat.Pattern) int64 {
	var n int64
	for r := 0; r < p.Rows; r++ {
		cols := p.ColInd[p.RowPtr[r]:p.RowPtr[r+1]]
		forEachUnit(cols, func(code, lo, hi int) {
			n += headerBytes + int64(hi-lo)<<code
		})
	}
	return n
}

// Name implements formats.Instance.
func (a *Matrix[T]) Name() string {
	if a.impl == blocks.Vector {
		return "CSR-DU/simd"
	}
	return "CSR-DU"
}

// Rows implements formats.Instance.
func (a *Matrix[T]) Rows() int { return a.rows }

// Cols implements formats.Instance.
func (a *Matrix[T]) Cols() int { return a.cols }

// NNZ implements formats.Instance.
func (a *Matrix[T]) NNZ() int64 { return int64(len(a.val)) }

// StoredScalars implements formats.Instance; CSR-DU stores no padding.
func (a *Matrix[T]) StoredScalars() int64 { return int64(len(a.val)) }

// MatrixBytes implements formats.Instance.
func (a *Matrix[T]) MatrixBytes() int64 {
	s := int64(floats.SizeOf[T]())
	return int64(len(a.val))*s + int64(len(a.stream)) +
		int64(len(a.rowPtr)+len(a.rowByte))*4
}

// Components implements formats.Instance: like CSR, the degenerate 1x1
// blocking with nb = nnz, but marked with the DU variant so the models
// use the delta-decoder's profiled block time.
func (a *Matrix[T]) Components() []formats.Component {
	return []formats.Component{{
		Shape:   blocks.RectShape(1, 1),
		Impl:    a.impl,
		Blocks:  int64(len(a.val)),
		WSBytes: a.MatrixBytes(),
		Variant: blocks.DU,
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

// MulRange implements formats.Instance: each row decodes its units in
// order, threading the running absolute column from unit to unit.
func (a *Matrix[T]) MulRange(x, y []T, r0, r1 int) {
	for r := r0; r < r1; r++ {
		vi, end := int(a.rowPtr[r]), int(a.rowPtr[r+1])
		si := int(a.rowByte[r])
		var col int32
		var acc T
		for vi < end {
			code := a.stream[si]
			n := int(a.stream[si+1])
			si += headerBytes
			nb := n << code
			part, c := a.kern[code](a.val[vi:vi+n], a.stream[si:si+nb], x, col)
			acc += part
			col = c
			vi += n
			si += nb
		}
		y[r] += acc
	}
}

// MulRangeMulti implements formats.Instance: each row's delta units are
// re-decoded per panel column — the unit headers and delta bytes stay
// cache-resident within a row, so the memory-level stream cost is paid
// once — with the per-column unit kernels reproducing the single-vector
// decode+multiply order bit for bit.
func (a *Matrix[T]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	if k == 0 {
		return
	}
	for r := r0; r < r1; r++ {
		rowVi, end := int(a.rowPtr[r]), int(a.rowPtr[r+1])
		rowSi := int(a.rowByte[r])
		for l := 0; l < k; l++ {
			vi, si := rowVi, rowSi
			var col int32
			var acc T
			for vi < end {
				code := a.stream[si]
				n := int(a.stream[si+1])
				si += headerBytes
				nb := n << code
				part, c := a.kernMulti[code](a.val[vi:vi+n], a.stream[si:si+nb], x, col, k, l)
				acc += part
				col = c
				vi += n
				si += nb
			}
			y[r*k+l] += acc
		}
	}
}

// Columns decodes the full column stream back to explicit per-nonzero
// column indices in row-major order. It exists for the round-trip tests
// and diagnostics, not the hot path.
func (a *Matrix[T]) Columns() []int32 {
	out := make([]int32, 0, len(a.val))
	for r := 0; r < a.rows; r++ {
		vi, end := int(a.rowPtr[r]), int(a.rowPtr[r+1])
		si := int(a.rowByte[r])
		var col int32
		for vi < end {
			code := a.stream[si]
			n := int(a.stream[si+1])
			si += headerBytes
			for i := 0; i < n; i++ {
				var d uint32
				switch code {
				case 0:
					d = uint32(a.stream[si])
				case 1:
					d = uint32(binary.LittleEndian.Uint16(a.stream[si:]))
				default:
					d = binary.LittleEndian.Uint32(a.stream[si:])
				}
				si += 1 << code
				col += int32(d)
				out = append(out, col)
			}
			vi += n
		}
	}
	return out
}

var _ formats.Instance[float64] = (*Matrix[float64])(nil)

// WithImpl implements formats.Instance: a view over the same arrays with
// a different kernel implementation class.
func (a *Matrix[T]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	b := *a
	b.impl = impl
	b.setKernels(impl)
	return &b
}
