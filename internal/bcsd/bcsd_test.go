package bcsd_test

import (
	"fmt"
	"testing"

	"blockspmv/internal/bcsd"
	"blockspmv/internal/blocks"
	"blockspmv/internal/conformance"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/testmat"
)

func TestConformanceAllSizes(t *testing.T) {
	corpus := testmat.Corpus[float64]()
	for _, s := range blocks.DiagShapes() {
		for name, m := range corpus {
			for _, impl := range blocks.Impls() {
				t.Run(fmt.Sprintf("%s/%s/%s", s, name, impl), func(t *testing.T) {
					conformance.Check(t, m, bcsd.New(m, s.R, impl))
				})
			}
		}
	}
}

func TestConformanceSinglePrecision(t *testing.T) {
	corpus := testmat.Corpus[float32]()
	for _, b := range []int{2, 5, 8} {
		for name, m := range corpus {
			t.Run(fmt.Sprintf("d%d/%s", b, name), func(t *testing.T) {
				conformance.Check(t, m, bcsd.New(m, b, blocks.Vector))
			})
		}
	}
}

func TestDecomposedConformance(t *testing.T) {
	corpus := testmat.Corpus[float64]()
	for _, s := range blocks.DiagShapes() {
		for name, m := range corpus {
			t.Run(fmt.Sprintf("%s/%s", s, name), func(t *testing.T) {
				conformance.Check(t, m, bcsd.NewDecomposed(m, s.R, blocks.Scalar))
			})
		}
	}
}

func TestCountsMatchConstruction(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		p := mat.PatternOf(m)
		for _, s := range blocks.DiagShapes() {
			cnt := blocks.CountDiag(p, s.R)

			a := bcsd.New(m, s.R, blocks.Scalar)
			if a.Blocks() != cnt.Blocks {
				t.Errorf("%s %s: constructed %d blocks, counted %d", name, s, a.Blocks(), cnt.Blocks)
			}
			if a.Padding() != cnt.Padding {
				t.Errorf("%s %s: constructed padding %d, counted %d", name, s, a.Padding(), cnt.Padding)
			}

			parts := bcsd.NewDecomposed(m, s.R, blocks.Scalar).Parts()
			blocked, rem := parts[0].(*bcsd.Matrix[float64]), parts[1]
			if blocked.Blocks() != cnt.FullBlocks {
				t.Errorf("%s %s: decomposed has %d full blocks, counted %d",
					name, s, blocked.Blocks(), cnt.FullBlocks)
			}
			if rem.NNZ() != cnt.RemainderNNZ {
				t.Errorf("%s %s: decomposed remainder %d, counted %d",
					name, s, rem.NNZ(), cnt.RemainderNNZ)
			}
		}
	}
}

func TestPureDiagonalNoPadding(t *testing.T) {
	// A full main diagonal of length 24 splits exactly into 24/b aligned
	// full diagonal blocks for every b dividing 24.
	n := 24
	m := mat.New[float64](n, n)
	for i := 0; i < n; i++ {
		m.Add(int32(i), int32(i), float64(i+1))
	}
	m.Finalize()
	for _, b := range []int{2, 3, 4, 6, 8} {
		a := bcsd.New(m, b, blocks.Scalar)
		if a.Padding() != 0 {
			t.Errorf("d%d: diagonal matrix has padding %d", b, a.Padding())
		}
		if want := int64(n / b); a.Blocks() != want {
			t.Errorf("d%d: %d blocks, want %d", b, a.Blocks(), want)
		}
	}
}

func TestSubdiagonalBoundaryBlocks(t *testing.T) {
	// Entry (1,0) in segment 0 with b=2 lies on the diagonal starting at
	// column -1: a boundary block that must still multiply correctly.
	m := mat.New[float64](4, 4)
	m.Add(1, 0, 5)  // start column -1 (boundary)
	m.Add(2, 3, 7)  // segment 1, start column 2, d=2 -> cols 2..3 interior
	m.Add(3, 3, 11) // wait: (3,3) has offset 1 in segment 1, start col 2
	m.Finalize()
	a := bcsd.New(m, 2, blocks.Scalar)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	a.Mul(x, y)
	want := make([]float64, 4)
	m.MulVec(x, want)
	if !floats.EqualWithin(y, want, 1e-12) {
		t.Errorf("boundary multiply = %v, want %v", y, want)
	}
}

func TestOffDiagonalRegularity(t *testing.T) {
	// Elements on a shifted full diagonal (i, i+3) with b=4, n=32: all
	// interior except where i+3 crosses the right edge.
	n := 32
	m := mat.New[float64](n, n)
	for i := 0; i+3 < n; i++ {
		m.Add(int32(i), int32(i+3), 1)
	}
	m.Finalize()
	conformance.Check(t, m, bcsd.New(m, 4, blocks.Scalar))
}

func TestDecomposedStoresNoPadding(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		for _, b := range []int{2, 4, 8} {
			d := bcsd.NewDecomposed(m, b, blocks.Scalar)
			if d.StoredScalars() != d.NNZ() {
				t.Errorf("%s d%d: decomposed stores %d scalars for %d nonzeros",
					name, b, d.StoredScalars(), d.NNZ())
			}
		}
	}
}

func TestNames(t *testing.T) {
	m := testmat.Random[float64](12, 12, 0.2, 1)
	if got := bcsd.New(m, 4, blocks.Scalar).Name(); got != "BCSD(d4)" {
		t.Errorf("Name = %q", got)
	}
	if got := bcsd.NewDecomposed(m, 4, blocks.Vector).Name(); got != "BCSD-DEC(d4)/simd" {
		t.Errorf("Name = %q", got)
	}
	// WithImpl rebuilds a decomposition's name and switches every part.
	dec := bcsd.NewDecomposedCompact(m, 4, blocks.Scalar)
	simd := dec.WithImpl(blocks.Vector)
	for _, tc := range []struct {
		inst formats.Instance[float64]
		name string
		impl blocks.Impl
	}{
		{dec, "BCSD-DEC(d4)/ix8", blocks.Scalar},
		{simd, "BCSD-DEC(d4)/ix8/simd", blocks.Vector},
		{simd.WithImpl(blocks.Scalar), "BCSD-DEC(d4)/ix8", blocks.Scalar},
	} {
		if got := tc.inst.Name(); got != tc.name {
			t.Errorf("Name = %q, want %q", got, tc.name)
		}
		for i, c := range tc.inst.Components() {
			if c.Impl != tc.impl {
				t.Errorf("%s: component %d is %v, want %v", tc.name, i, c.Impl, tc.impl)
			}
		}
	}
}

func TestInvalidSizePanics(t *testing.T) {
	m := testmat.Random[float64](8, 8, 0.3, 1)
	for _, b := range []int{0, 1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("d%d did not panic", b)
				}
			}()
			bcsd.New(m, b, blocks.Scalar)
		}()
	}
}
