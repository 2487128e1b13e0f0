package bcsr_test

import (
	"fmt"
	"testing"

	"blockspmv/internal/bcsr"
	"blockspmv/internal/blocks"
	"blockspmv/internal/conformance"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/testmat"
)

func TestConformanceAllShapes(t *testing.T) {
	corpus := testmat.Corpus[float64]()
	for _, s := range blocks.RectShapes() {
		for name, m := range corpus {
			for _, impl := range blocks.Impls() {
				t.Run(fmt.Sprintf("%s/%s/%s", s, name, impl), func(t *testing.T) {
					conformance.Check(t, m, bcsr.New(m, s.R, s.C, impl))
				})
			}
		}
	}
}

func TestConformanceSinglePrecision(t *testing.T) {
	corpus := testmat.Corpus[float32]()
	for _, s := range []blocks.Shape{blocks.RectShape(2, 3), blocks.RectShape(4, 2), blocks.RectShape(1, 8)} {
		for name, m := range corpus {
			t.Run(fmt.Sprintf("%s/%s", s, name), func(t *testing.T) {
				conformance.Check(t, m, bcsr.New(m, s.R, s.C, blocks.Vector))
			})
		}
	}
}

func TestDecomposedConformance(t *testing.T) {
	corpus := testmat.Corpus[float64]()
	for _, s := range blocks.RectShapes() {
		for name, m := range corpus {
			t.Run(fmt.Sprintf("%s/%s", s, name), func(t *testing.T) {
				conformance.Check(t, m, bcsr.NewDecomposed(m, s.R, s.C, blocks.Scalar))
			})
		}
	}
}

// TestCountsMatchConstruction cross-checks the construction-free counting
// in internal/blocks against the actual constructed formats: the counts
// drive the performance models, so they must agree exactly.
func TestCountsMatchConstruction(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		p := mat.PatternOf(m)
		for _, s := range blocks.RectShapes() {
			cnt := blocks.CountRect(p, s.R, s.C)

			a := bcsr.New(m, s.R, s.C, blocks.Scalar)
			if a.Blocks() != cnt.Blocks {
				t.Errorf("%s %s: constructed %d blocks, counted %d", name, s, a.Blocks(), cnt.Blocks)
			}
			if a.Padding() != cnt.Padding {
				t.Errorf("%s %s: constructed padding %d, counted %d", name, s, a.Padding(), cnt.Padding)
			}

			parts := bcsr.NewDecomposed(m, s.R, s.C, blocks.Scalar).Parts()
			blocked, rem := parts[0].(*bcsr.Matrix[float64]), parts[1]
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

func TestDenseMatrixHasNoPaddingForDivisibleShapes(t *testing.T) {
	m := mat.Dense[float64](24, 24)
	for _, s := range blocks.RectShapes() {
		if 24%s.R != 0 || 24%s.C != 0 {
			continue
		}
		a := bcsr.New(m, s.R, s.C, blocks.Scalar)
		if a.Padding() != 0 {
			t.Errorf("%s: dense 24x24 has padding %d", s, a.Padding())
		}
		want := int64(24 / s.R * 24 / s.C)
		if a.Blocks() != want {
			t.Errorf("%s: dense 24x24 has %d blocks, want %d", s, a.Blocks(), want)
		}
	}
}

func TestAlignmentForcedPadding(t *testing.T) {
	// A single 2x2 dense block at the unaligned position (1,1) must be
	// covered by four aligned 2x2 blocks: 16 stored scalars, 12 padding.
	m := mat.New[float64](6, 6)
	for i := 1; i <= 2; i++ {
		for j := 1; j <= 2; j++ {
			m.Add(int32(i), int32(j), 1)
		}
	}
	m.Finalize()
	a := bcsr.New(m, 2, 2, blocks.Scalar)
	if a.Blocks() != 4 {
		t.Errorf("unaligned tile covered by %d blocks, want 4", a.Blocks())
	}
	if a.Padding() != 12 {
		t.Errorf("padding = %d, want 12", a.Padding())
	}
	// The decomposition finds no full aligned block: everything remains.
	parts := bcsr.NewDecomposed(m, 2, 2, blocks.Scalar).Parts()
	blocked, rem := parts[0].(*bcsr.Matrix[float64]), parts[1]
	if blocked.Blocks() != 0 || rem.NNZ() != 4 {
		t.Errorf("decomposed = %d blocks + %d remainder, want 0 + 4",
			blocked.Blocks(), rem.NNZ())
	}
}

func TestDecomposedStoresNoPadding(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		for _, s := range []blocks.Shape{blocks.RectShape(2, 2), blocks.RectShape(3, 2), blocks.RectShape(1, 4)} {
			d := bcsr.NewDecomposed(m, s.R, s.C, blocks.Scalar)
			if d.StoredScalars() != d.NNZ() {
				t.Errorf("%s %s: decomposed stores %d scalars for %d nonzeros",
					name, s, d.StoredScalars(), d.NNZ())
			}
		}
	}
}

func TestRightEdgeOverhang(t *testing.T) {
	// cols=7 with 1x4 blocks: an entry in column 6 lives in the aligned
	// block starting at column 4, fully interior; an entry in column 5
	// with c=4 starts block 4 (cols 4..7) overhanging by one at cols=7.
	m := mat.New[float64](4, 7)
	m.Add(0, 6, 2)
	m.Add(1, 4, 3)
	m.Add(2, 0, 1)
	m.Finalize()
	a := bcsr.New(m, 1, 4, blocks.Scalar)
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	y := make([]float64, 4)
	a.Mul(x, y)
	want := []float64{2 * 7, 3 * 5, 1, 0}
	if !floats.EqualWithin(y, want, 1e-12) {
		t.Errorf("overhang multiply = %v, want %v", y, want)
	}
}

func TestNamesEncodeShapeAndImpl(t *testing.T) {
	m := testmat.Random[float64](12, 12, 0.2, 1)
	if got := bcsr.New(m, 2, 3, blocks.Scalar).Name(); got != "BCSR(2x3)" {
		t.Errorf("Name = %q", got)
	}
	if got := bcsr.New(m, 2, 3, blocks.Vector).Name(); got != "BCSR(2x3)/simd" {
		t.Errorf("Name = %q", got)
	}
	if got := bcsr.NewDecomposed(m, 4, 1, blocks.Vector).Name(); got != "BCSR-DEC(4x1)/simd" {
		t.Errorf("Name = %q", got)
	}
	// WithImpl rebuilds a decomposition's name and switches every part.
	dec := bcsr.NewDecomposedCompact(m, 4, 1, blocks.Scalar)
	simd := dec.WithImpl(blocks.Vector)
	for _, tc := range []struct {
		inst formats.Instance[float64]
		name string
		impl blocks.Impl
	}{
		{dec, "BCSR-DEC(4x1)/ix8", blocks.Scalar},
		{simd, "BCSR-DEC(4x1)/ix8/simd", blocks.Vector},
		{simd.WithImpl(blocks.Scalar), "BCSR-DEC(4x1)/ix8", blocks.Scalar},
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

func TestUnsupportedShapePanics(t *testing.T) {
	m := testmat.Random[float64](8, 8, 0.3, 1)
	defer func() {
		if recover() == nil {
			t.Error("3x3 (9 elements) did not panic")
		}
	}()
	bcsr.New(m, 3, 3, blocks.Scalar)
}
