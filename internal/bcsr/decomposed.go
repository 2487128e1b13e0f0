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

// NewDecomposed converts a finalized coordinate matrix to BCSR-DEC, the
// two-part sum of a BCSR submatrix holding only the completely dense
// (unpadded) aligned r x c blocks and a CSR submatrix holding the
// remainder (Section II.B, k = 2). Both parts store 4-byte column
// indices.
func NewDecomposed[T floats.Float](m *mat.COO[T], r, c int, impl blocks.Impl) *formats.Sum[T] {
	full, rem := SplitFullBlocks(m, r, c)
	return decomposed(idx.W32, r, c, impl, New(full, r, c, impl), csr.FromCOO(rem, impl))
}

// NewDecomposedCompact is NewDecomposed with both parts storing the
// narrowest column-index type the matrix width permits.
func NewDecomposedCompact[T floats.Float](m *mat.COO[T], r, c int, impl blocks.Impl) *formats.Sum[T] {
	full, rem := SplitFullBlocks(m, r, c)
	return decomposed(idx.FitsCols(m.Cols()), r, c, impl, NewCompact(full, r, c, impl), csr.NewCompact(rem, impl))
}

func decomposed[T floats.Float](w idx.Width, r, c int, impl blocks.Impl, blocked, rem formats.Instance[T]) *formats.Sum[T] {
	if p := blocked.StoredScalars() - blocked.NNZ(); p != 0 {
		panic(fmt.Sprintf("bcsr: decomposed blocked part has %d padding zeros", p))
	}
	return formats.NewSum(fmt.Sprintf("BCSR-DEC(%dx%d)", r, c)+w.Suffix(), impl, r, blocked, rem)
}

// SplitFullBlocks partitions the entries of a finalized m into a matrix
// containing exactly the completely dense aligned r x c blocks and a
// matrix with everything else. Both results are finalized. It is the
// extraction step of BCSR-DEC, exported for the multi-pattern
// decomposition.
func SplitFullBlocks[T floats.Float](m *mat.COO[T], r, c int) (full, rem *mat.COO[T]) {
	if !m.Finalized() {
		panic("bcsr: matrix must be finalized")
	}
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
