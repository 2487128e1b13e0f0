package conformance_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"blockspmv/internal/bcsd"
	"blockspmv/internal/bcsr"
	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/csrdu"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/ubcsr"
	"blockspmv/internal/vbl"
	"blockspmv/internal/vbr"
)

// TestAllFormatsAgreeQuick is the cross-format equivalence property: for
// random matrices, every storage format produces the same product as the
// COO oracle (within accumulation-order tolerance). This is the single
// strongest invariant in the library — any indexing bug in any format
// breaks it.
func TestAllFormatsAgreeQuick(t *testing.T) {
	f := func(seed int64, rowsRaw, colsRaw uint8, densityRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + int(rowsRaw)%96
		cols := 1 + int(colsRaw)%96
		density := 0.01 + float64(densityRaw%50)/100
		m := mat.New[float64](rows, cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if rng.Float64() < density {
					m.Add(int32(r), int32(c), rng.Float64()*2-1)
				}
			}
		}
		m.Finalize()

		x := floats.RandVector[float64](cols, seed+1)
		want := make([]float64, rows)
		m.MulVec(x, want)

		instances := []formats.Instance[float64]{
			csr.FromCOO(m, blocks.Scalar),
			csr.FromCOO(m, blocks.Vector),
			bcsr.New(m, 2, 3, blocks.Scalar),
			bcsr.New(m, 4, 2, blocks.Vector),
			bcsr.NewDecomposed(m, 2, 2, blocks.Scalar),
			ubcsr.New(m, 2, 4, blocks.Scalar),
			bcsd.New(m, 3, blocks.Scalar),
			bcsd.New(m, 8, blocks.Vector),
			bcsd.NewDecomposed(m, 4, blocks.Scalar),
			vbl.New(m, blocks.Scalar),
			vbl.NewDP(m, blocks.Scalar),
			vbr.New(m, blocks.Scalar),
			vbr.NewDP(m, blocks.Scalar),
			csr.NewCompact(m, blocks.Scalar),
			csrdu.New(m, blocks.Scalar),
			csrdu.New(m, blocks.Vector),
			bcsr.NewCompact(m, 2, 3, blocks.Scalar),
			bcsd.NewCompact(m, 4, blocks.Scalar),
		}
		got := make([]float64, rows)
		for _, inst := range instances {
			inst.Mul(x, got)
			if !floats.EqualWithin(got, want, 1e-9) {
				t.Logf("format %s disagrees on seed=%d %dx%d density=%.2f (max diff %g)",
					inst.Name(), seed, rows, cols, density, floats.MaxAbsDiff(got, want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
