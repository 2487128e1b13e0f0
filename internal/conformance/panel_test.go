package conformance_test

import (
	"testing"

	"blockspmv/internal/bcsd"
	"blockspmv/internal/bcsr"
	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/csrdu"
	"blockspmv/internal/dcsr"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/multidec"
	"blockspmv/internal/parallel"
	"blockspmv/internal/sell"
	"blockspmv/internal/testmat"
	"blockspmv/internal/ubcsr"
	"blockspmv/internal/vbl"
	"blockspmv/internal/vbr"
)

// panelWidths are the panel widths every MulVecs check runs: the no-op,
// the single-vector delegation, the unrolled widths and one that falls
// through to the strided kernels.
var panelWidths = []int{0, 1, 2, 3, 4, 8}

// panelInstances stores m in every format family (both kernel classes
// where they differ in code path).
func panelInstances(m *mat.COO[float64]) []formats.Instance[float64] {
	return []formats.Instance[float64]{
		csr.FromCOO(m, blocks.Scalar),
		csr.FromCOO(m, blocks.Vector),
		csr.NewCompact(m, blocks.Scalar),
		bcsr.New(m, 2, 3, blocks.Scalar),
		bcsr.New(m, 4, 2, blocks.Vector),
		bcsr.NewDecomposed(m, 2, 2, blocks.Scalar),
		bcsr.NewCompact(m, 2, 3, blocks.Scalar),
		ubcsr.New(m, 2, 4, blocks.Scalar),
		bcsd.New(m, 3, blocks.Scalar),
		bcsd.New(m, 8, blocks.Vector),
		bcsd.NewDecomposed(m, 4, blocks.Scalar),
		bcsd.NewCompact(m, 4, blocks.Scalar),
		vbl.New(m, blocks.Scalar),
		vbl.NewDP(m, blocks.Scalar),
		vbr.New(m, blocks.Scalar),
		vbr.NewDP(m, blocks.Scalar),
		sell.New(m, 4, 1, blocks.Scalar),
		sell.New(m, 8, 0, blocks.Vector),
		sell.NewCompact(m, 32, 0, blocks.Scalar),
		sell.New(m, 3, 0, blocks.Scalar),
		csrdu.New(m, blocks.Scalar),
		csrdu.New(m, blocks.Vector),
		dcsr.New(m),
		multidec.New(m, 2, 2, 3, blocks.Scalar),
	}
}

// panelCorpus is the shared corpus plus the degenerate shapes the panel
// path must survive: 0x0, 0x5, 5x0 and a zero-nnz matrix with both
// dimensions positive.
func panelCorpus() map[string]*mat.COO[float64] {
	corpus := testmat.Corpus[float64]()
	for name, dims := range map[string][2]int{
		"0x0":     {0, 0},
		"0x5":     {0, 5},
		"5x0":     {5, 0},
		"zeronnz": {7, 11},
	} {
		m := mat.New[float64](dims[0], dims[1])
		m.Finalize()
		corpus[name] = m
	}
	return corpus
}

// TestMulVecsMatchesIndependentSerial asserts the serial panel contract
// on every format over the corpus and the degenerate shapes: MulVecs is
// bit-for-bit equal to k independent Mul calls, for every panel width
// including k=0 and k=1.
func TestMulVecsMatchesIndependentSerial(t *testing.T) {
	for name, m := range panelCorpus() {
		t.Run(name, func(t *testing.T) {
			for _, inst := range panelInstances(m) {
				for _, k := range panelWidths {
					xs, ys, want := panelOperands(inst, k)
					for l := 0; l < k; l++ {
						inst.Mul(xs[l], want[l])
					}
					formats.MulVecs(inst, xs, ys)
					assertPanelEqual(t, inst.Name(), k, ys, want)
				}
			}
		})
	}
}

// TestMulVecsMatchesIndependentPooled asserts the same contract through
// the pooled executor: one MulVecs panel equals k pooled MulVec calls on
// the same pool, bit for bit, at several partition counts.
func TestMulVecsMatchesIndependentPooled(t *testing.T) {
	for name, m := range panelCorpus() {
		t.Run(name, func(t *testing.T) {
			for _, inst := range panelInstances(m) {
				for _, parts := range []int{1, 3} {
					pm := parallel.NewMul[float64](inst, parts, parallel.BalanceWeights)
					for _, k := range panelWidths {
						xs, ys, want := panelOperands(inst, k)
						for l := 0; l < k; l++ {
							if err := pm.MulVec(xs[l], want[l]); err != nil {
								t.Fatalf("%s parts=%d: MulVec: %v", inst.Name(), parts, err)
							}
						}
						if err := pm.MulVecs(xs, ys); err != nil {
							t.Fatalf("%s parts=%d k=%d: MulVecs: %v", inst.Name(), parts, k, err)
						}
						assertPanelEqual(t, inst.Name(), k, ys, want)
					}
					pm.Close()
				}
			}
		})
	}
}

// panelOperands builds k distinct inputs, poisoned outputs (MulVecs must
// overwrite) and zeroed want columns for inst.
func panelOperands(inst formats.Instance[float64], k int) (xs, ys, want [][]float64) {
	xs = make([][]float64, k)
	ys = make([][]float64, k)
	want = make([][]float64, k)
	for l := 0; l < k; l++ {
		xs[l] = floats.RandVector[float64](inst.Cols(), int64(500+31*l))
		ys[l] = make([]float64, inst.Rows())
		floats.Fill(ys[l], 3)
		want[l] = make([]float64, inst.Rows())
	}
	return xs, ys, want
}

func assertPanelEqual(t *testing.T, format string, k int, got, want [][]float64) {
	t.Helper()
	for l := 0; l < k; l++ {
		for i := range got[l] {
			if got[l][i] != want[l][i] {
				t.Fatalf("%s: MulVecs k=%d column %d row %d = %v, want %v (bit-for-bit)",
					format, k, l, i, got[l][i], want[l][i])
			}
		}
	}
}
