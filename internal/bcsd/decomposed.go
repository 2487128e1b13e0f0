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

// NewDecomposed converts a finalized coordinate matrix to BCSD-DEC, the
// two-part sum of a BCSD submatrix holding only the completely dense
// (unpadded) aligned diagonal blocks of size b and a CSR submatrix
// holding the remainder. Both parts store 4-byte column indices.
func NewDecomposed[T floats.Float](m *mat.COO[T], b int, impl blocks.Impl) *formats.Sum[T] {
	full, rem := SplitFullBlocks(m, b)
	return decomposed(idx.W32, b, impl, New(full, b, impl), csr.FromCOO(rem, impl))
}

// NewDecomposedCompact is NewDecomposed with both parts storing the
// narrowest column-index type the matrix width permits.
func NewDecomposedCompact[T floats.Float](m *mat.COO[T], b int, impl blocks.Impl) *formats.Sum[T] {
	full, rem := SplitFullBlocks(m, b)
	return decomposed(idx.FitsCols(m.Cols()), b, impl, NewCompact(full, b, impl), csr.NewCompact(rem, impl))
}

func decomposed[T floats.Float](w idx.Width, b int, impl blocks.Impl, blocked, rem formats.Instance[T]) *formats.Sum[T] {
	if p := blocked.StoredScalars() - blocked.NNZ(); p != 0 {
		panic(fmt.Sprintf("bcsd: decomposed blocked part has %d padding zeros", p))
	}
	return formats.NewSum(fmt.Sprintf("BCSD-DEC(d%d)", b)+w.Suffix(), impl, b, blocked, rem)
}

// SplitFullBlocks partitions the entries of a finalized m into a matrix
// containing exactly the completely dense aligned diagonal blocks of size
// b and a matrix with everything else. Both results are finalized. It is
// the extraction step of BCSD-DEC, exported for the multi-pattern
// decomposition.
func SplitFullBlocks[T floats.Float](m *mat.COO[T], b int) (full, rem *mat.COO[T]) {
	if !m.Finalized() {
		panic("bcsd: matrix must be finalized")
	}
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
