package vbl_test

import (
	"fmt"
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/suite"
	"blockspmv/internal/testmat"
	"blockspmv/internal/vbl"
)

// BenchmarkMulVsCSR compares 1D-VBL against CSR on run-structured data
// (VBL's best case) — the trade the paper evaluates.
func BenchmarkMulVsCSR(b *testing.B) {
	m := testmat.Runs[float64](4000, 8000, 1)
	x := floats.RandVector[float64](8000, 2)
	y := make([]float64, 4000)
	v := vbl.New(m, blocks.Scalar)
	c := csr.FromCOO(m, blocks.Scalar)
	b.Run("1D-VBL", func(b *testing.B) {
		b.SetBytes(v.MatrixBytes())
		b.ReportMetric(v.AvgBlockLen(), "avg-block-len")
		for i := 0; i < b.N; i++ {
			v.Mul(x, y)
		}
	})
	b.Run("CSR", func(b *testing.B) {
		b.SetBytes(c.MatrixBytes())
		for i := 0; i < b.N; i++ {
			c.Mul(x, y)
		}
	})
}

// BenchmarkConstruct times building 1D-VBL, which registration and every
// churn recompaction pay, on the matrices BenchmarkKernels multiplies. In
// double precision NewDP's blocks are the runs; the single-precision
// build runs the DP, which merges runs across one-column gaps.
func BenchmarkConstruct(b *testing.B) {
	for _, mc := range []struct {
		name   string
		double *mat.COO[float64]
		single *mat.COO[float32]
	}{
		{"random4096", testmat.Random[float64](4096, 4096, 0.008, 1), testmat.Random[float32](4096, 4096, 0.008, 1)},
		{"powerlaw60000", suite.PowerLaw[float64](60000, 8, 1.8, 1), suite.PowerLaw[float32](60000, 8, 1.8, 1)},
		{"laplacian64x3", testmat.Laplacian[float64](64, 3), testmat.Laplacian[float32](64, 3)},
	} {
		b.Run(mc.name+"/New", func(b *testing.B) {
			for b.Loop() {
				vbl.New(mc.double, blocks.Vector)
			}
		})
		b.Run(mc.name+"/NewDP", func(b *testing.B) {
			for b.Loop() {
				vbl.NewDP(mc.double, blocks.Vector)
			}
		})
		b.Run(mc.name+"/NewDP-f32", func(b *testing.B) {
			for b.Loop() {
				vbl.NewDP(mc.single, blocks.Vector)
			}
		})
	}
}

// BenchmarkKernels times one multiply of a k-vector panel, k = 1, 2 and
// 8, by 1D-VBL/simd and by CSR/ix16 on the matrices the serving
// workloads use: the unit runs of random 4096² (churn) and of the
// 60k-row power-law graph (serve-http), and the length-3 and -9 runs of
// solve's block Laplacian. ns/vec is ns/op divided by k.
func BenchmarkKernels(b *testing.B) {
	for _, mc := range []struct {
		name string
		m    *mat.COO[float64]
	}{
		{"random4096", testmat.Random[float64](4096, 4096, 0.008, 1)},
		{"powerlaw60000", suite.PowerLaw[float64](60000, 8, 1.8, 1)},
		{"laplacian64x3", testmat.Laplacian[float64](64, 3)},
	} {
		kernels := []struct {
			name string
			inst formats.Instance[float64]
		}{
			{"vbl", vbl.New(mc.m, blocks.Vector)},
			{"csr-ix16", csr.FromCOOIx[float64, uint16](mc.m, blocks.Scalar)},
		}
		for _, k := range []int{1, 2, 8} {
			x := floats.RandVector[float64](mc.m.Cols()*k, 2)
			y := make([]float64, mc.m.Rows()*k)
			for _, kn := range kernels {
				b.Run(fmt.Sprintf("%s/k=%d/%s", mc.name, k, kn.name), func(b *testing.B) {
					b.SetBytes(kn.inst.MatrixBytes())
					for b.Loop() {
						kn.inst.MulRangeMulti(x, y, k, 0, mc.m.Rows())
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/vec")
				})
			}
		}
	}
}
