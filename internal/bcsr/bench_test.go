package bcsr_test

import (
	"fmt"
	"testing"

	"blockspmv/internal/bcsr"
	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/suite"
	"blockspmv/internal/testmat"
)

// BenchmarkMulShapes times the BCSR multiply across block shapes on a
// 2x4-tiled matrix: the matching shape should dominate.
func BenchmarkMulShapes(b *testing.B) {
	m := testmat.Blocky[float64](8192, 8192, 2, 4, 40000, 0, 1)
	x := floats.RandVector[float64](8192, 2)
	y := make([]float64, 8192)
	for _, s := range []blocks.Shape{
		blocks.RectShape(1, 2), blocks.RectShape(2, 2),
		blocks.RectShape(2, 4), blocks.RectShape(4, 2), blocks.RectShape(1, 8),
	} {
		for _, impl := range blocks.Impls() {
			a := bcsr.New(m, s.R, s.C, impl)
			b.Run(fmt.Sprintf("%s/%s", s, impl), func(b *testing.B) {
				b.SetBytes(a.MatrixBytes())
				b.ReportMetric(float64(a.Padding())/float64(a.NNZ()), "padding-ratio")
				for i := 0; i < b.N; i++ {
					a.Mul(x, y)
				}
			})
		}
	}
}

// BenchmarkDecomposed compares the padded format against its
// decomposition on a half-blocked matrix.
func BenchmarkDecomposed(b *testing.B) {
	m := testmat.Blocky[float64](8192, 8192, 2, 4, 20000, 60000, 2)
	x := floats.RandVector[float64](8192, 3)
	y := make([]float64, 8192)
	padded := bcsr.New(m, 2, 4, blocks.Scalar)
	dec := bcsr.NewDecomposed(m, 2, 4, blocks.Scalar)
	b.Run("padded", func(b *testing.B) {
		b.SetBytes(padded.MatrixBytes())
		for i := 0; i < b.N; i++ {
			padded.Mul(x, y)
		}
	})
	b.Run("decomposed", func(b *testing.B) {
		b.SetBytes(dec.MatrixBytes())
		for i := 0; i < b.N; i++ {
			dec.Mul(x, y)
		}
	})
}

// BenchmarkConstruct times BCSR construction, the conversion cost an
// autotuner pays once per matrix.
func BenchmarkConstruct(b *testing.B) {
	m := testmat.Blocky[float64](8192, 8192, 2, 4, 40000, 20000, 4)
	b.ReportMetric(float64(m.NNZ()), "nnz")
	for i := 0; i < b.N; i++ {
		bcsr.New(m, 2, 4, blocks.Scalar)
	}
}

// BenchmarkConstructBone010 times the BCSR(7x1) build with uint16 block
// columns on suite matrix 16 (bone010) at tiny scale: the format and
// matrix the end-to-end benchmark's serve-burst workload registers.
func BenchmarkConstructBone010(b *testing.B) {
	m, err := suite.Build[float64](16, suite.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		bcsr.NewIx[float64, uint16](m, 7, 1, blocks.Scalar)
	}
}
