package bcsd

import (
	"fmt"
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/testmat"
)

// TestBlockOrder pins the order build stores blocks in. Interior blocks
// of a segment must have strictly ascending start columns: the overlay's
// bit-for-bit contract rests on that accumulation order. Boundary blocks
// must be ordered by segment, then start column (negative starts before
// right-edge overhangs), and only blocks that leave the matrix may be
// boundary blocks.
func TestBlockOrder(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		for _, s := range blocks.DiagShapes() {
			padded := New(m, s.R, blocks.Scalar)
			dec := NewDecomposed(m, s.R, blocks.Scalar).Parts()[0].(*Matrix[float64])
			for kind, a := range map[string]*Matrix[float64]{"padded": padded, "dec": dec} {
				if err := checkBlockOrder(a); err != nil {
					t.Errorf("%s %s %s: %v", name, s, kind, err)
				}
			}
		}
	}
}

func checkBlockOrder(a *Matrix[float64]) error {
	inside := func(start int32) bool { return start >= 0 && int(start)+a.b <= a.cols }
	for seg := 0; seg+1 < len(a.browPtr); seg++ {
		row := a.bcol[a.browPtr[seg]:a.browPtr[seg+1]]
		for i, start := range row {
			if !inside(start) {
				return fmt.Errorf("segment %d: interior block at start %d", seg, start)
			}
			if i > 0 && row[i-1] >= start {
				return fmt.Errorf("segment %d: starts %v not strictly ascending", seg, row)
			}
		}
	}
	for i, start := range a.edgeCol {
		if inside(start) {
			return fmt.Errorf("boundary block %d at start %d lies inside the matrix", i, start)
		}
		if i > 0 && (a.edgeSeg[i-1] > a.edgeSeg[i] ||
			a.edgeSeg[i-1] == a.edgeSeg[i] && a.edgeCol[i-1] >= start) {
			return fmt.Errorf("boundary blocks %d and %d out of order", i-1, i)
		}
	}
	return nil
}
