package csr_test

import (
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/conformance"
	"blockspmv/internal/csr"
	"blockspmv/internal/floats"
	"blockspmv/internal/mat"
	"blockspmv/internal/testmat"
)

func TestConformance(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		for _, impl := range blocks.Impls() {
			t.Run(name+"/"+impl.String(), func(t *testing.T) {
				conformance.Check(t, m, csr.FromCOO(m, impl))
			})
		}
	}
}

func TestConformanceSingle(t *testing.T) {
	for name, m := range testmat.Corpus[float32]() {
		for _, impl := range blocks.Impls() {
			t.Run(name+"/"+impl.String(), func(t *testing.T) {
				conformance.Check(t, m, csr.FromCOO(m, impl))
			})
		}
	}
}

func TestMatrixBytes(t *testing.T) {
	m := testmat.Random[float64](100, 100, 0.1, 1)
	a := csr.FromCOO(m, blocks.Scalar)
	want := int64(m.NNZ())*(8+4) + int64(m.Rows()+1)*4
	if got := a.MatrixBytes(); got != want {
		t.Errorf("MatrixBytes = %d, want %d", got, want)
	}
	if got := mat.CSRWorkingSetBytes(m.Rows(), m.NNZ(), 8); got != want {
		t.Errorf("CSRWorkingSetBytes = %d, want %d", got, want)
	}
}

func TestComponentsDegenerate(t *testing.T) {
	m := testmat.Random[float64](50, 50, 0.1, 2)
	a := csr.FromCOO(m, blocks.Scalar)
	comps := a.Components()
	if len(comps) != 1 {
		t.Fatalf("CSR has %d components, want 1", len(comps))
	}
	if !comps[0].Shape.IsUnit() {
		t.Errorf("CSR component shape = %v, want 1x1", comps[0].Shape)
	}
	if comps[0].Blocks != int64(m.NNZ()) {
		t.Errorf("CSR component blocks = %d, want nnz %d", comps[0].Blocks, m.NNZ())
	}
}

func TestZeroColInd(t *testing.T) {
	m := testmat.Random[float64](60, 60, 0.15, 3)
	a := csr.FromCOO(m, blocks.Scalar)
	z := a.ZeroColInd()

	if z.NNZ() != a.NNZ() || z.MatrixBytes() != a.MatrixBytes() {
		t.Fatalf("zeroed clone changed size: nnz %d->%d bytes %d->%d",
			a.NNZ(), z.NNZ(), a.MatrixBytes(), z.MatrixBytes())
	}
	// Every product element must equal rowsum * x[0].
	x := floats.RandVector[float64](60, 4)
	y := make([]float64, 60)
	z.Mul(x, y)
	for r := 0; r < 60; r++ {
		var rowSum float64
		for _, e := range m.Entries() {
			if int(e.Row) == r {
				rowSum += e.Val
			}
		}
		want := rowSum * x[0]
		if d := y[r] - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("row %d: zeroed product %g, want %g", r, y[r], want)
		}
	}
}

func TestMulDimensionPanic(t *testing.T) {
	m := testmat.Random[float64](10, 20, 0.2, 5)
	a := csr.FromCOO(m, blocks.Scalar)
	defer func() {
		if recover() == nil {
			t.Error("Mul with wrong dimensions did not panic")
		}
	}()
	a.Mul(make([]float64, 10), make([]float64, 10))
}

func TestVectorKernelMatchesScalar(t *testing.T) {
	// Rows with lengths around the unroll width (0..9) stress the tails.
	m := mat.New[float64](10, 64)
	for r := 0; r < 10; r++ {
		for c := 0; c < r; c++ {
			m.Add(int32(r), int32(c*5), float64(r*10+c)+0.5)
		}
	}
	m.Finalize()
	s := csr.FromCOO(m, blocks.Scalar)
	v := csr.FromCOO(m, blocks.Vector)
	x := floats.RandVector[float64](64, 6)
	ys := make([]float64, 10)
	yv := make([]float64, 10)
	s.Mul(x, ys)
	v.Mul(x, yv)
	if !floats.EqualWithin(ys, yv, 1e-12) {
		t.Errorf("vector kernel diverges from scalar: %v vs %v", yv, ys)
	}
}
