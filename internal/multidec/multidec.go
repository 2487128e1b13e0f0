// Package multidec implements the k=3 multi-pattern decomposition of
// Agarwal, Gustavson & Zubair [1], which Section II describes as the
// origin of the decomposed methods: the input matrix is split into a
// submatrix of completely dense aligned r x c blocks, a submatrix of
// completely dense aligned diagonal blocks extracted from the remainder,
// and a final CSR submatrix with everything left over. No padding is ever
// stored. The result is a three-part formats.Sum, the same type as the
// two-part BCSR-DEC and BCSD-DEC: the parts multiply in sequence,
// accumulating into the same output vector.
//
// The paper's own evaluation restricts decompositions to k=2 (BCSR-DEC,
// BCSD-DEC); this package generalises to the mixed k=3 form. Its
// components price exactly like the two-part sums, since equations (2)
// and (3) are already sums over k components, but the selector does not
// enumerate it yet: that needs a construction-free count of the full
// diagonals left after the rectangles are extracted.
package multidec

import (
	"fmt"

	"blockspmv/internal/bcsd"
	"blockspmv/internal/bcsr"
	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
)

// New decomposes a finalized matrix with r x c rectangular blocks and
// length-b diagonal blocks. Extraction order is rectangles first (they
// amortise more index bytes per element), diagonals from what remains,
// CSR for the rest. Row ranges align to both the block height and the
// segment size.
func New[T floats.Float](m *mat.COO[T], r, c, b int, impl blocks.Impl) *formats.Sum[T] {
	if !m.Finalized() {
		panic("multidec: matrix must be finalized")
	}
	rectFull, rest := bcsr.SplitFullBlocks(m, r, c)
	diagFull, rem := bcsd.SplitFullBlocks(rest, b)

	rect, diag := bcsr.New(rectFull, r, c, impl), bcsd.New(diagFull, b, impl)
	if p := rect.Padding() + diag.Padding(); p != 0 {
		panic(fmt.Sprintf("multidec: decomposition stored %d padding zeros", p))
	}
	name := fmt.Sprintf("MULTI-DEC(%s+%s)", blocks.RectShape(r, c), blocks.DiagShape(b))
	return formats.NewSum(name, impl, lcm(r, b), rect, diag, csr.FromCOO(rem, impl))
}

func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}
