// Package sell implements the SELL-C-σ (sorted sliced ELLPACK) format.
//
// Rows are sorted by descending length inside sorting scopes of σ rows
// (σ = 1 keeps the natural order, σ = n sorts the whole matrix), then
// grouped into slices of C consecutive sorted rows. Each slice is padded
// to its own maximum row length and stored column-major: element j of
// slice lane i lives at val[sliceOff[s] + j*C + i], so the C lanes of a
// slice advance in lockstep like vector lanes. Padding entries carry
// value 0 and column 0, contributing exact zeros. A row permutation
// (perm[lane position] = original row, as in internal/reorder) maps each
// lane back to its row; the multiply scatters lane results through it,
// so the output is bit-for-bit identical to scalar CSR — σ-sorting
// changes storage, never results.
//
// Blocked formats lose on scatter-dominated matrices (uniform random,
// power-law graphs, LP constraint systems) because nonzeros rarely sit
// adjacent; SELL-C-σ needs no adjacency at all. Its price is padding:
// C-row slices cost (maxlen - len) stored zeros per short row, which
// σ-sorting shrinks by grouping rows of similar length into the same
// slice. The models price the real padded stream via StreamBytes, which
// matches MatrixBytes byte for byte.
//
// Sorting scopes are rounded up to a multiple of C so no slice crosses a
// scope boundary, and RowAlign is the scope size: every parallel range
// covers whole scopes, so the permuted scatter of a slice always lands
// inside the worker's own range and the MulRange concurrency contract
// holds unchanged.
package sell

import (
	"fmt"

	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/idx"
	"blockspmv/internal/kernels"
	"blockspmv/internal/mat"
	"blockspmv/internal/reorder"
)

// Mat is a sparse matrix in SELL-C-σ format, generic over the value type
// and the stored column-index width.
type Mat[T floats.Float, I idx.Index] struct {
	rows, cols int
	chunk      int // C: slice height
	sigma      int // requested sorting scope; <= 0 means the whole matrix
	scope      int // effective scope: a multiple of chunk (see RowAlign)
	impl       blocks.Impl

	val      []T                 // padded scalars, column-major per slice
	colInd   []I                 // same layout as val; padding stores column 0
	sliceOff []int64             // len slices+1, scalar offsets into val/colInd
	perm     reorder.Permutation // perm[lane position] = original row

	nnz int64

	kern     kernels.SellSliceKernelIx[T, I]      // resolved at construction
	genMulti kernels.SellSliceMultiKernelIx[T, I] // fallback for ungenerated chunks
}

// New converts a finalized coordinate matrix to SELL-C-σ with the
// paper's baseline 4-byte column indices. chunk is the slice height C;
// sigma the sorting scope in rows (1 keeps the natural row order, any
// value <= 0 or >= Rows() sorts the whole matrix).
func New[T floats.Float](m *mat.COO[T], chunk, sigma int, impl blocks.Impl) *Mat[T, int32] {
	return NewIx[T, int32](m, chunk, sigma, impl)
}

// NewCompact converts to SELL-C-σ with the narrowest index width able
// to address the matrix columns.
func NewCompact[T floats.Float](m *mat.COO[T], chunk, sigma int, impl blocks.Impl) formats.Instance[T] {
	switch idx.FitsCols(m.Cols()) {
	case idx.W8:
		return NewIx[T, uint8](m, chunk, sigma, impl)
	case idx.W16:
		return NewIx[T, uint16](m, chunk, sigma, impl)
	default:
		return NewIx[T, int32](m, chunk, sigma, impl)
	}
}

// NewIx converts a finalized coordinate matrix to SELL-C-σ with column
// indices stored as type I. It panics when the matrix is wider than the
// index type can address.
func NewIx[T floats.Float, I idx.Index](m *mat.COO[T], chunk, sigma int, impl blocks.Impl) *Mat[T, I] {
	if !m.Finalized() {
		panic("sell: matrix must be finalized")
	}
	if chunk < 1 {
		panic(fmt.Sprintf("sell: chunk height %d (want >= 1)", chunk))
	}
	if b := idx.Bytes[I](); b < 4 && m.Cols() > 1<<(8*b) {
		panic(fmt.Sprintf("sell: %d columns do not fit %s indices", m.Cols(), idx.Of[I]()))
	}
	rows, cols := m.Rows(), m.Cols()
	lens := m.RowLengths()
	perm, scope := scopePerm(lens, chunk, sigma)

	a := &Mat[T, I]{
		rows: rows, cols: cols,
		chunk: chunk, sigma: sigma, scope: scope,
		impl: impl,
		perm: perm,
		nnz:  int64(m.NNZ()),
	}

	slices := (rows + chunk - 1) / chunk
	a.sliceOff = make([]int64, slices+1)
	for s := 0; s < slices; s++ {
		// The slice width is its longest row; σ-sorted lane 0 is the
		// longest only within a scope, so take the max explicitly.
		width := 0
		for i := s * chunk; i < (s+1)*chunk && i < rows; i++ {
			if l := lens[perm[i]]; l > width {
				width = l
			}
		}
		a.sliceOff[s+1] = a.sliceOff[s] + int64(width*chunk)
	}
	a.val = make([]T, a.sliceOff[slices])
	a.colInd = make([]I, a.sliceOff[slices])

	rowPtr := make([]int64, rows+1)
	for r := 0; r < rows; r++ {
		rowPtr[r+1] = rowPtr[r] + int64(lens[r])
	}
	entries := m.Entries()
	for pos := 0; pos < rows; pos++ {
		s, lane := pos/chunk, pos%chunk
		off := a.sliceOff[s]
		r := int(perm[pos])
		for j, e := 0, rowPtr[r]; e < rowPtr[r+1]; j, e = j+1, e+1 {
			a.val[off+int64(j*chunk+lane)] = entries[e].Val
			a.colInd[off+int64(j*chunk+lane)] = I(entries[e].Col)
		}
	}

	a.resolveKernels()
	return a
}

// scopePerm builds the σ-sort permutation: a stable descending-length
// sort of the row indices inside each sorting scope. The scope is sigma
// rounded up to a multiple of chunk (so slices never cross scopes);
// sigma <= 1 keeps the identity order with a one-slice scope. Each scope
// is ordered by a counting sort on the row length (appendByLength), in
// O(scope + its longest row): a stable sort by one integer key is
// unique, so this is the permutation a stable comparison sort gives.
func scopePerm(lens []int, chunk, sigma int) (reorder.Permutation, int) {
	rows := len(lens)
	s := sigma
	if s <= 0 || s > rows {
		s = rows
	}
	if sigma == 1 || s <= 1 {
		perm := make(reorder.Permutation, rows)
		for i := range perm {
			perm[i] = int32(i)
		}
		return perm, chunk
	}
	scope := (s + chunk - 1) / chunk * chunk
	perm := make(reorder.Permutation, 0, rows)
	for r0 := 0; r0 < rows; r0 += scope {
		perm = appendByLength(perm, lens, r0, min(r0+scope, rows))
	}
	return perm, scope
}

// appendByLength appends the rows [r0, r1) to perm by descending length,
// equal lengths in index order: a stable counting sort keyed by
// maxLen - length.
func appendByLength(perm reorder.Permutation, lens []int, r0, r1 int) reorder.Permutation {
	maxLen := 0
	for _, l := range lens[r0:r1] {
		maxLen = max(maxLen, l)
	}
	// next[k] is the next free position for key k: after the prefix
	// sum, the count of rows with a smaller key.
	next := make([]int, maxLen+2)
	for _, l := range lens[r0:r1] {
		next[maxLen-l+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	base := len(perm)
	perm = perm[:base+r1-r0]
	for r := r0; r < r1; r++ {
		k := maxLen - lens[r]
		perm[base+next[k]] = int32(r)
		next[k]++
	}
	return perm
}

// resolveKernels binds the generated slice kernels for the chunk height
// and impl, falling back to the loop-based generics for chunk heights
// outside the generated set.
func (a *Mat[T, I]) resolveKernels() {
	a.kern = kernels.SellIx[T, I](a.chunk, a.impl)
	if a.kern == nil {
		a.kern = kernels.SellGenericIx[T, I](a.chunk)
	}
	a.genMulti = kernels.SellGenericMultiIx[T, I](a.chunk)
}

// Chunk returns the slice height C.
func (a *Mat[T, I]) Chunk() int { return a.chunk }

// Scope returns the effective sorting scope: the requested σ rounded up
// to a multiple of C (and equal to RowAlign, capped at the row count).
func (a *Mat[T, I]) Scope() int { return a.scope }

// Slices returns the number of slices, ceil(rows/C).
func (a *Mat[T, I]) Slices() int { return len(a.sliceOff) - 1 }

// SliceWidth returns the padded width (longest row) of slice s.
func (a *Mat[T, I]) SliceWidth(s int) int {
	return int(a.sliceOff[s+1]-a.sliceOff[s]) / a.chunk
}

// Perm returns the row permutation (perm[lane position] = original
// row). The slice is the instance's own state: callers must not modify
// it.
func (a *Mat[T, I]) Perm() reorder.Permutation { return a.perm }

// Name implements formats.Instance, e.g. "SELL-8-n/ix16/simd": slice
// height, sorting scope ("n" for whole-matrix sorting), index width and
// kernel class.
func (a *Mat[T, I]) Name() string {
	n := fmt.Sprintf("SELL-%d-%s", a.chunk, SigmaName(a.sigma))
	n += idx.Of[I]().Suffix()
	if a.impl == blocks.Vector {
		n += "/simd"
	}
	return n
}

// SigmaName renders a sorting-scope parameter for format names: "n" for
// the whole-matrix sentinel (sigma <= 0), the decimal value otherwise.
func SigmaName(sigma int) string {
	if sigma <= 0 {
		return "n"
	}
	return fmt.Sprintf("%d", sigma)
}

// Rows implements formats.Instance.
func (a *Mat[T, I]) Rows() int { return a.rows }

// Cols implements formats.Instance.
func (a *Mat[T, I]) Cols() int { return a.cols }

// NNZ implements formats.Instance.
func (a *Mat[T, I]) NNZ() int64 { return a.nnz }

// StoredScalars implements formats.Instance: every stored value
// including the slice padding (short rows padded to the slice width,
// phantom lanes of a partial final slice padded to full height).
func (a *Mat[T, I]) StoredScalars() int64 { return int64(len(a.val)) }

// MatrixBytes implements formats.Instance: the padded value and column
// arrays, the slice offsets and the row permutation. Construction-free
// pricing via StreamBytes matches this byte for byte.
func (a *Mat[T, I]) MatrixBytes() int64 {
	return int64(len(a.val))*int64(floats.SizeOf[T]()) +
		int64(len(a.colInd))*int64(idx.Bytes[I]()) +
		int64(len(a.sliceOff))*8 +
		int64(len(a.perm))*4
}

// Components implements formats.Instance. Slices have no fixed block
// shape, so the component reports the degenerate 1x1 shape with Blocks
// equal to the stored scalars — the per-scalar normalization the
// profiling layer uses for the SELL kernel variant, mirroring VBR/VBL.
func (a *Mat[T, I]) Components() []formats.Component {
	return []formats.Component{{
		Shape:   blocks.RectShape(1, 1),
		Impl:    a.impl,
		Blocks:  a.StoredScalars(),
		WSBytes: a.MatrixBytes(),
		Variant: blocks.SELL,
	}}
}

// RowAlign implements formats.Instance: the sorting scope (capped at
// the row count). Ranges covering whole scopes contain every scatter
// target of the slices inside them, because the σ-sort permutes rows
// only within a scope.
func (a *Mat[T, I]) RowAlign() int {
	return max(1, min(a.scope, a.rows))
}

// RowWeights implements formats.Instance: each row weighs its slice
// width (its stored scalars including padding). The phantom lanes of a
// partial final slice are charged to that slice's last real row so the
// weights sum to StoredScalars; ranges cannot split inside a slice, so
// the attribution does not affect balancing.
func (a *Mat[T, I]) RowWeights() []int64 {
	w := make([]int64, a.rows)
	for pos := 0; pos < a.rows; pos++ {
		s := pos / a.chunk
		w[a.perm[pos]] = int64(a.SliceWidth(s))
	}
	if a.rows > 0 {
		last := a.Slices() - 1
		phantom := (last+1)*a.chunk - a.rows
		w[a.perm[a.rows-1]] += int64(phantom * a.SliceWidth(last))
	}
	return w
}

// Mul implements formats.Instance.
func (a *Mat[T, I]) Mul(x, y []T) {
	formats.CheckDims[T](a, x, y)
	floats.Fill(y, 0)
	a.MulRange(x, y, 0, a.rows)
}

// MulRange implements formats.Instance. It walks the slices covering
// [r0, r1) and scatters each slice's lane results through the row
// permutation; aligned boundaries cover whole sorting scopes, so every
// target row lies inside [r0, r1).
func (a *Mat[T, I]) MulRange(x, y []T, r0, r1 int) {
	if r0 < 0 || r1 > a.rows || r0 > r1 {
		panic(fmt.Sprintf("sell: MulRange [%d,%d) out of bounds", r0, r1))
	}
	c := a.chunk
	kern := a.kern
	for s, s1 := r0/c, (r1+c-1)/c; s < s1; s++ {
		off, end := a.sliceOff[s], a.sliceOff[s+1]
		base := s * c
		h := min(c, a.rows-base)
		kern(a.val[off:end], a.colInd[off:end], int(end-off)/c, x, y, a.perm[base:base+h])
	}
}

// MulRangeMulti implements formats.Instance.
func (a *Mat[T, I]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	switch k {
	case 0:
		return
	case 1:
		a.MulRange(x, y, r0, r1)
		return
	}
	if r0 < 0 || r1 > a.rows || r0 > r1 {
		panic(fmt.Sprintf("sell: MulRangeMulti [%d,%d) out of bounds", r0, r1))
	}
	kern := kernels.SellMultiIx[T, I](a.chunk, a.impl, k)
	if kern == nil {
		kern = a.genMulti
	}
	c := a.chunk
	for s, s1 := r0/c, (r1+c-1)/c; s < s1; s++ {
		off, end := a.sliceOff[s], a.sliceOff[s+1]
		base := s * c
		h := min(c, a.rows-base)
		kern(a.val[off:end], a.colInd[off:end], int(end-off)/c, x, y, a.perm[base:base+h], k)
	}
}

// WithImpl implements formats.Instance: a shallow copy sharing the
// arrays, with the kernels re-resolved for the new class.
func (a *Mat[T, I]) WithImpl(impl blocks.Impl) formats.Instance[T] {
	b := *a
	b.impl = impl
	b.resolveKernels()
	return &b
}

// DecodeStream reconstructs the matrix from the SELL storage alone: it
// walks every lane, inverts the permutation and keeps the entries with
// nonzero values (padding stores exact zeros, so a matrix whose
// original entries are nonzero round-trips; explicitly stored zero
// values are indistinguishable from padding and are dropped). The fuzz
// harness uses it to prove the padded stream still encodes the matrix.
func (a *Mat[T, I]) DecodeStream() *mat.COO[T] {
	m := mat.New[T](a.rows, a.cols)
	for pos := 0; pos < a.rows; pos++ {
		s, lane := pos/a.chunk, pos%a.chunk
		off, width := a.sliceOff[s], a.SliceWidth(s)
		r := a.perm[pos]
		for j := 0; j < width; j++ {
			if v := a.val[off+int64(j*a.chunk+lane)]; v != 0 {
				m.Add(r, int32(a.colInd[off+int64(j*a.chunk+lane)]), v)
			}
		}
	}
	m.Finalize()
	return m
}

// Layout is the construction-free padded-layout summary of a SELL-C-σ
// build over a sparsity pattern: everything pricing needs, computed
// without materializing the format.
type Layout struct {
	// Padded is the stored scalar count including padding: the sum over
	// slices of C times the slice's longest row.
	Padded int64
	// Slices is the slice count, ceil(rows/C).
	Slices int
}

// LayoutOf computes the padded layout a NewIx build with the same chunk
// and sigma would produce, from the pattern alone, through the same
// scopePerm: a whole-matrix scope (σ=n) costs one counting sort over the
// row lengths.
func LayoutOf(p *mat.Pattern, chunk, sigma int) Layout {
	lens := make([]int, p.Rows)
	for r := 0; r < p.Rows; r++ {
		lens[r] = int(p.RowPtr[r+1] - p.RowPtr[r])
	}
	perm, _ := scopePerm(lens, chunk, sigma)
	l := Layout{Slices: (p.Rows + chunk - 1) / chunk}
	for s := 0; s < l.Slices; s++ {
		width := 0
		for i := s * chunk; i < (s+1)*chunk && i < p.Rows; i++ {
			if w := lens[perm[i]]; w > width {
				width = w
			}
		}
		l.Padded += int64(width * chunk)
	}
	return l
}

// StreamBytes returns the exact MatrixBytes of the layout for a matrix
// with rows rows, valSize-byte values and idxBytes-byte column indices:
// padded values and indices, slice offsets (8 bytes each) and the row
// permutation (4 bytes per row).
func (l Layout) StreamBytes(rows, valSize, idxBytes int) int64 {
	return l.Padded*int64(valSize+idxBytes) + int64(l.Slices+1)*8 + int64(rows)*4
}

// StreamBytes prices a SELL-C-σ build over a pattern without
// constructing it; the result matches the built instance's MatrixBytes
// byte for byte (TestSELLStreamBytesExact audits this).
func StreamBytes(p *mat.Pattern, chunk, sigma, valSize, idxBytes int) int64 {
	return LayoutOf(p, chunk, sigma).StreamBytes(p.Rows, valSize, idxBytes)
}

var (
	_ formats.Instance[float64] = (*Mat[float64, int32])(nil)
	_ formats.Instance[float64] = (*Mat[float64, uint16])(nil)
	_ formats.Instance[float64] = (*Mat[float64, uint8])(nil)
	_ formats.Instance[float32] = (*Mat[float32, int32])(nil)
)
