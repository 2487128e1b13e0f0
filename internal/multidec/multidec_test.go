package multidec_test

import (
	"fmt"
	"testing"

	"blockspmv/internal/bcsr"
	"blockspmv/internal/blocks"
	"blockspmv/internal/conformance"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/multidec"
	"blockspmv/internal/testmat"
)

func TestConformance(t *testing.T) {
	corpus := testmat.Corpus[float64]()
	for _, cfg := range []struct{ r, c, b int }{{2, 2, 4}, {2, 4, 2}, {1, 8, 8}, {4, 2, 3}} {
		for name, m := range corpus {
			for _, impl := range blocks.Impls() {
				t.Run(fmt.Sprintf("%dx%d+d%d/%s/%s", cfg.r, cfg.c, cfg.b, name, impl), func(t *testing.T) {
					conformance.Check(t, m, multidec.New(m, cfg.r, cfg.c, cfg.b, impl))
				})
			}
		}
	}
}

func TestConformanceSingle(t *testing.T) {
	for name, m := range testmat.Corpus[float32]() {
		t.Run(name, func(t *testing.T) {
			conformance.Check(t, m, multidec.New(m, 2, 2, 3, blocks.Scalar))
		})
	}
}

// TestExtractionOrder builds a matrix with a dense 2x2 tile, a clean
// diagonal run and a scattered entry, and verifies each lands in the
// intended component.
func TestExtractionOrder(t *testing.T) {
	m := mat.New[float64](8, 8)
	// Aligned 2x2 tile at (0,0) -> rect part.
	m.Add(0, 0, 1)
	m.Add(0, 1, 1)
	m.Add(1, 0, 1)
	m.Add(1, 1, 1)
	// Full aligned diagonal of length 4 at rows 4..7 -> diag part.
	for k := 0; k < 4; k++ {
		m.Add(int32(4+k), int32(2+k), 2)
	}
	// A lone entry -> CSR remainder.
	m.Add(2, 7, 3)
	m.Finalize()

	d := multidec.New(m, 2, 2, 4, blocks.Scalar)
	parts := d.Parts()
	rect, diag, rem := parts[0], parts[1], parts[2]
	if rect.NNZ() != 4 {
		t.Errorf("rect part has %d nonzeros, want 4", rect.NNZ())
	}
	if diag.NNZ() != 4 {
		t.Errorf("diag part has %d nonzeros, want 4", diag.NNZ())
	}
	if rem.NNZ() != 1 {
		t.Errorf("remainder has %d nonzeros, want 1", rem.NNZ())
	}
	if d.StoredScalars() != d.NNZ() {
		t.Errorf("decomposition stores %d scalars for %d nonzeros", d.StoredScalars(), d.NNZ())
	}
}

// TestRectTakesPrecedence: an element set that is both a full 2x2 block
// and part of diagonals goes to the rectangular part (extraction order).
func TestRectTakesPrecedence(t *testing.T) {
	m := mat.New[float64](4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.Add(int32(i), int32(j), 1)
		}
	}
	m.Finalize()
	parts := multidec.New(m, 2, 2, 2, blocks.Scalar).Parts()
	rect, diag, rem := parts[0], parts[1], parts[2]
	if rect.NNZ() != 16 || diag.NNZ() != 0 || rem.NNZ() != 0 {
		t.Errorf("dense matrix split %d/%d/%d, want 16/0/0", rect.NNZ(), diag.NNZ(), rem.NNZ())
	}
}

func TestComponentsAreThree(t *testing.T) {
	m := testmat.Diagonalish[float64](64, 64, 3)
	d := multidec.New(m, 2, 2, 4, blocks.Scalar)
	comps := d.Components()
	if len(comps) != 3 {
		t.Fatalf("multidec has %d components, want 3", len(comps))
	}
	if comps[0].Shape != blocks.RectShape(2, 2) {
		t.Errorf("component 0 shape %v", comps[0].Shape)
	}
	if comps[1].Shape != blocks.DiagShape(4) {
		t.Errorf("component 1 shape %v", comps[1].Shape)
	}
	if !comps[2].Shape.IsUnit() {
		t.Errorf("component 2 shape %v, want 1x1", comps[2].Shape)
	}
	// WithImpl rebuilds the name and switches all three parts.
	simd := d.WithImpl(blocks.Vector)
	for _, tc := range []struct {
		inst formats.Instance[float64]
		name string
		impl blocks.Impl
	}{
		{d, "MULTI-DEC(2x2+d4)", blocks.Scalar},
		{simd, "MULTI-DEC(2x2+d4)/simd", blocks.Vector},
		{simd.WithImpl(blocks.Scalar), "MULTI-DEC(2x2+d4)", blocks.Scalar},
	} {
		if got := tc.inst.Name(); got != tc.name {
			t.Errorf("Name = %q, want %q", got, tc.name)
		}
		comps := tc.inst.Components()
		if len(comps) != 3 {
			t.Fatalf("%s has %d components, want 3", tc.name, len(comps))
		}
		for i, c := range comps {
			if c.Impl != tc.impl {
				t.Errorf("%s: component %d is %v, want %v", tc.name, i, c.Impl, tc.impl)
			}
		}
	}
}

func TestRowAlignIsLCM(t *testing.T) {
	m := testmat.Random[float64](48, 48, 0.1, 4)
	if got := multidec.New(m, 4, 2, 6, blocks.Scalar).RowAlign(); got != 12 {
		t.Errorf("RowAlign = %d, want lcm(4,6)=12", got)
	}
}

// TestDiagonalExtractionBeatsK2 demonstrates the point of k=3: on a
// matrix with both tiles and diagonals, the CSR remainder is smaller than
// under either two-way decomposition.
func TestDiagonalExtractionBeatsK2(t *testing.T) {
	m := mat.New[float64](64, 64)
	// Aligned 2x2 tiles in the top half.
	for tIdx := 0; tIdx < 8; tIdx++ {
		r0, c0 := tIdx*2, tIdx*4
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				m.Add(int32(r0+i), int32(c0+j), 1)
			}
		}
	}
	// Full aligned diagonals in the bottom half.
	for seg := 8; seg < 16; seg++ {
		for k := 0; k < 4; k++ {
			m.Add(int32(seg*4%64+k), int32(seg*3%60+k), 2)
		}
	}
	m.Finalize()

	rem3 := multidec.New(m, 2, 2, 4, blocks.Scalar).Parts()[2]
	rem2 := bcsr.NewDecomposed(m, 2, 2, blocks.Scalar).Parts()[1]
	if rem3.NNZ() >= rem2.NNZ() {
		t.Errorf("k=3 remainder %d not smaller than k=2 remainder %d",
			rem3.NNZ(), rem2.NNZ())
	}
}
