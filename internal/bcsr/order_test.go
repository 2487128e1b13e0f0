package bcsr

import (
	"fmt"
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/testmat"
)

// TestBlockOrder pins the order build stores blocks in. Interior blocks
// of a block row must have strictly ascending start columns: the overlay's
// bit-for-bit contract rests on that accumulation order. Edge blocks must
// be ordered by block row, then start column, and only blocks that
// overhang the right edge may be edge blocks.
func TestBlockOrder(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		for _, s := range append([]blocks.Shape{blocks.RectShape(1, 1)}, blocks.RectShapes()...) {
			padded := New(m, s.R, s.C, blocks.Scalar)
			dec := NewDecomposed(m, s.R, s.C, blocks.Scalar).Parts()[0].(*Matrix[float64])
			for kind, a := range map[string]*Matrix[float64]{"padded": padded, "dec": dec} {
				if err := checkBlockOrder(a); err != nil {
					t.Errorf("%s %s %s: %v", name, s, kind, err)
				}
			}
		}
	}
}

func checkBlockOrder(a *Matrix[float64]) error {
	for br := 0; br+1 < len(a.browPtr); br++ {
		row := a.bcol[a.browPtr[br]:a.browPtr[br+1]]
		for i, col := range row {
			if col%int32(a.c) != 0 || int(col)+a.c > a.cols {
				return fmt.Errorf("block row %d: interior block at column %d", br, col)
			}
			if i > 0 && row[i-1] >= col {
				return fmt.Errorf("block row %d: columns %v not strictly ascending", br, row)
			}
		}
	}
	for i, col := range a.edgeCol {
		if int(col)+a.c <= a.cols {
			return fmt.Errorf("edge block %d at column %d fits inside the matrix", i, col)
		}
		if i > 0 && (a.edgeBRow[i-1] > a.edgeBRow[i] ||
			a.edgeBRow[i-1] == a.edgeBRow[i] && a.edgeCol[i-1] >= col) {
			return fmt.Errorf("edge blocks %d and %d out of order", i-1, i)
		}
	}
	return nil
}
