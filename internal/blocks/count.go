package blocks

import (
	"fmt"

	"blockspmv/internal/mat"
)

// Count summarises how a fixed block shape tiles a sparsity pattern. All
// numbers are exact (not sampled estimates): the counting pass visits
// each nonzero once and stamps the block it falls in (see Counter), which
// is cheap enough to run for every candidate shape.
type Count struct {
	Shape Shape

	// Blocks is the number of blocks the padded format (BCSR/BCSD) stores:
	// every aligned block position containing at least one nonzero.
	Blocks int64

	// Padding is the number of explicit zeros the padded format adds:
	// Blocks*Elems - NNZ.
	Padding int64

	// FullBlocks is the number of aligned block positions that are
	// completely dense, i.e. the blocks a decomposed format extracts
	// without padding.
	FullBlocks int64

	// RemainderNNZ is the number of nonzeros a decomposed format leaves in
	// the CSR remainder: NNZ - FullBlocks*Elems.
	RemainderNNZ int64
}

// Stamp is one block column's slot in a pass that visits a matrix one
// block row at a time. Row is the last block row that touched the block
// column (-1 before any), so a slot never needs clearing between block
// rows; N is what that block row keeps there, such as its nonzero count
// in the block or the block's index in the output arrays.
type Stamp struct{ Row, N int32 }

// Stamps returns n untouched stamps, reusing buf's storage when it is
// large enough.
func Stamps(buf []Stamp, n int) []Stamp {
	if cap(buf) < n {
		buf = make([]Stamp, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = Stamp{Row: -1}
	}
	return buf
}

// Counter counts the blocks of any shape over one pattern. Each count is
// one pass over the nonzeros that stamps their block columns; the stamp
// array (8 bytes per column) is allocated once and reused across shapes,
// so an enumeration counting every shape allocates it once. A Counter is
// not safe for concurrent use.
type Counter struct {
	p     *mat.Pattern
	stamp []Stamp
}

// NewCounter returns a Counter over p.
func NewCounter(p *mat.Pattern) *Counter {
	// A diagonal block of length b may start b-1 columns left of column 0.
	return &Counter{p: p, stamp: make([]Stamp, 0, p.Cols+MaxBlockElems-1)}
}

// Count counts the blocks of shape s; see CountRect and CountDiag.
func (k *Counter) Count(s Shape) Count {
	if s.Kind == Diag {
		return k.diag(s.R)
	}
	return k.rect(s.R, s.C)
}

// divisor returns the multiplier and shift that divide a column index by
// c: (col·m)>>shift = ⌊col/c⌋. With m = ⌈2³⁴/c⌉ that holds for every
// col < 2³¹ when c ≤ 9, since the error col·(m·c−2³⁴)/2³⁴ stays below
// 1/c; c = 1 needs no division, and its m would overflow. c is at most
// MaxBlockElems, and the constant below stops the build if that bound is
// raised past 9.
func divisor(c int) (m, shift uint64) {
	if c == 1 {
		return 1, 0
	}
	return (1<<34 + uint64(c) - 1) / uint64(c), 34
}

const _ = uint(9 - MaxBlockElems)

// rect counts aligned r x c blocks; see CountRect. A block is full when
// all r*c of its positions hold a nonzero, which a block overhanging the
// bottom or right edge never can, since the pattern's positions are
// distinct and inside the matrix.
func (k *Counter) rect(r, c int) Count {
	s := RectShape(r, c)
	if !s.Valid() && !s.IsUnit() {
		panic(fmt.Sprintf("blocks: invalid rect shape %dx%d", r, c))
	}
	p := k.p
	cnt := Count{Shape: s}
	elems := int32(r * c)
	k.stamp = Stamps(k.stamp, (p.Cols+c-1)/c)
	m, shift := divisor(c)
	for br := int32(0); int(br)*r < p.Rows; br++ {
		// The rows of a block row are contiguous in ColInd, and which of
		// them a nonzero is in does not matter here.
		lo, hi := p.RowPtr[int(br)*r], p.RowPtr[min(int(br+1)*r, p.Rows)]
		for _, col := range p.ColInd[lo:hi] {
			st := &k.stamp[uint64(col)*m>>shift]
			if st.Row != br {
				*st = Stamp{Row: br}
				cnt.Blocks++
			}
			if st.N++; st.N == elems {
				cnt.FullBlocks++
			}
		}
	}
	cnt.Padding = cnt.Blocks*int64(elems) - int64(p.NNZ())
	cnt.RemainderNNZ = int64(p.NNZ()) - cnt.FullBlocks*int64(elems)
	return cnt
}

// diag counts aligned diagonal blocks of length b; see CountDiag. As in
// rect, only a block with all b positions inside the matrix can collect
// b nonzeros.
func (k *Counter) diag(b int) Count {
	s := DiagShape(b)
	if !s.Valid() {
		panic(fmt.Sprintf("blocks: invalid diag length %d", b))
	}
	p := k.p
	cnt := Count{Shape: s}
	// Block start columns run from -(b-1) to Cols-1; slot start+b-1.
	k.stamp = Stamps(k.stamp, p.Cols+b-1)
	for seg := int32(0); int(seg)*b < p.Rows; seg++ {
		rowStart := int(seg) * b
		rowEnd := min(rowStart+b, p.Rows)
		for row := rowStart; row < rowEnd; row++ {
			shift := int32(b - 1 - (row - rowStart))
			for _, col := range p.RowCols(row) {
				st := &k.stamp[col+shift]
				if st.Row != seg {
					*st = Stamp{Row: seg}
					cnt.Blocks++
				}
				if st.N++; st.N == int32(b) {
					cnt.FullBlocks++
				}
			}
		}
	}
	cnt.Padding = cnt.Blocks*int64(b) - int64(p.NNZ())
	cnt.RemainderNNZ = int64(p.NNZ()) - cnt.FullBlocks*int64(b)
	return cnt
}

// CountRect counts aligned r x c blocks in the pattern. A block at block
// position (I, J) covers rows [I*r, I*r+r) and columns [J*c, J*c+c); edge
// blocks that overhang the matrix boundary are counted like any other
// (overhanging positions are padding and can never be part of a full
// block).
func CountRect(p *mat.Pattern, r, c int) Count { return NewCounter(p).rect(r, c) }

// CountDiag counts aligned diagonal blocks of length b. The matrix is split
// into row segments of height b; within segment s, the nonzero (row, col)
// lies on the diagonal block starting at (s*b, col-(row-s*b)). Start
// columns may be negative or overhang the right edge; such boundary blocks
// are stored clipped and can never be full.
func CountDiag(p *mat.Pattern, b int) Count { return NewCounter(p).diag(b) }

// CountVBL returns the number of variable-length horizontal blocks 1D-VBL
// forms: maximal runs of consecutive columns within a row, split into
// chunks of at most maxLen elements (the paper stores block sizes in one
// byte, so maxLen is 255 there).
func CountVBL(p *mat.Pattern, maxLen int) int64 {
	if maxLen < 1 {
		panic("blocks: CountVBL maxLen must be positive")
	}
	var blocks int64
	for r := 0; r < p.Rows; r++ {
		cols := p.RowCols(r)
		for i := 0; i < len(cols); {
			j := i + 1
			for j < len(cols) && cols[j] == cols[j-1]+1 {
				j++
			}
			runLen := j - i
			blocks += int64((runLen + maxLen - 1) / maxLen)
			i = j
		}
	}
	return blocks
}

// CountForShape dispatches to CountRect or CountDiag.
func CountForShape(p *mat.Pattern, s Shape) Count { return NewCounter(p).Count(s) }
