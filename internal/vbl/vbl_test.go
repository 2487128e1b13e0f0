package vbl_test

import (
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/conformance"
	"blockspmv/internal/mat"
	"blockspmv/internal/partition"
	"blockspmv/internal/testmat"
	"blockspmv/internal/vbl"
)

func TestConformance(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		t.Run(name, func(t *testing.T) {
			conformance.Check(t, m, vbl.New(m, blocks.Scalar))
		})
	}
}

func TestConformanceSingle(t *testing.T) {
	for name, m := range testmat.Corpus[float32]() {
		t.Run(name, func(t *testing.T) {
			conformance.Check(t, m, vbl.New(m, blocks.Scalar))
		})
	}
}

func TestBlockCountMatchesPatternCount(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		a := vbl.New(m, blocks.Scalar)
		want := partition.VBLStats(mat.PatternOf(m), 8, false).Blocks
		if a.Blocks() != want {
			t.Errorf("%s: constructed %d blocks, counted %d", name, a.Blocks(), want)
		}
	}
}

func TestLongRunSplitting(t *testing.T) {
	// A single row of 600 consecutive nonzeros must split into blocks of
	// 255+255+90.
	m := mat.New[float64](1, 600)
	for c := 0; c < 600; c++ {
		m.Add(0, int32(c), float64(c%9)+1)
	}
	m.Finalize()
	a := vbl.New(m, blocks.Scalar)
	if a.Blocks() != 3 {
		t.Fatalf("600-run split into %d blocks, want 3", a.Blocks())
	}
	if a.NNZ() != 600 || a.StoredScalars() != 600 {
		t.Errorf("nnz/stored = %d/%d, want 600/600", a.NNZ(), a.StoredScalars())
	}
	conformance.Check(t, m, a)
}

func TestDenseMatrixFormsOneBlockPerRow(t *testing.T) {
	m := mat.Dense[float64](20, 30)
	a := vbl.New(m, blocks.Scalar)
	if a.Blocks() != 20 {
		t.Errorf("dense 20x30 has %d blocks, want 20 (one per row)", a.Blocks())
	}
	if a.AvgBlockLen() != 30 {
		t.Errorf("avg block length = %g, want 30", a.AvgBlockLen())
	}
}

func TestMatrixBytesFourArrays(t *testing.T) {
	m := testmat.Runs[float64](10, 400, 3)
	a := vbl.New(m, blocks.Scalar)
	want := a.NNZ()*8 + int64(m.Rows()+1)*8 + a.Blocks()*4 + a.Blocks()
	if got := a.MatrixBytes(); got != want {
		t.Errorf("MatrixBytes = %d, want %d (val + rowPtr + rowBlk + bcol + 1-byte bsize)", got, want)
	}
}

func TestScatteredSinglesAreSingletonBlocks(t *testing.T) {
	m := mat.New[float64](5, 100)
	cols := []int32{3, 17, 40, 90}
	for i, c := range cols {
		m.Add(int32(i), c, float64(i+1))
	}
	m.Finalize()
	a := vbl.New(m, blocks.Scalar)
	if a.Blocks() != int64(len(cols)) {
		t.Errorf("scattered singles form %d blocks, want %d", a.Blocks(), len(cols))
	}
	if a.AvgBlockLen() != 1 {
		t.Errorf("avg block length = %g, want 1", a.AvgBlockLen())
	}
}
