package main

import (
	"testing"

	"blockspmv/internal/testmat"
)

// TestLaplacianBlocks checks the system solvebench solves: the block
// Laplacian of testmat.
func TestLaplacianBlocks(t *testing.T) {
	m := testmat.Laplacian[float64](4, 2)
	if m.Rows() != 32 || m.Cols() != 32 {
		t.Fatalf("testmat.Laplacian(4,2) is %dx%d, want 32x32", m.Rows(), m.Cols())
	}
	// 5-point stencil on a 4x4 grid has 16 diagonal + 48 off-diagonal
	// stencil entries, each a dense 2x2 block.
	if want := (16 + 48) * 4; m.NNZ() != want {
		t.Errorf("NNZ = %d, want %d", m.NNZ(), want)
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,8")
	if err != nil || len(got) != 3 || got[2] != 8 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("parseInts accepted garbage")
	}
}
