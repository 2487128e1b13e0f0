package vbl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/mat"
	"blockspmv/internal/suite"
	"blockspmv/internal/testmat"
)

// The oracle is the kernel pair as it stood before the unit-run path and
// the one-walk panels: every block, unit runs included, goes through the
// four-chain loop, the block size is read through blockLen, and a panel
// replays each row once per column. The kernels must match it bit for bit.

func (a *Matrix[T]) blockLen(bi int) int { return int(a.bsize[bi]) }

func (a *Matrix[T]) oracleMulRange(x, y []T, r0, r1 int) {
	if r0 < 0 || r1 > a.rows || r0 > r1 {
		panic(fmt.Sprintf("vbl: MulRange [%d,%d) out of bounds", r0, r1))
	}
	val, bcol := a.val, a.bcol
	bi := int(a.rowBlk[r0])
	vi := int(a.rowPtr[r0])
	for r := r0; r < r1; r++ {
		end := int(a.rowPtr[r+1])
		var acc T
		for vi < end {
			c := int(bcol[bi])
			n := a.blockLen(bi)
			bi++
			v := val[vi : vi+n]
			xs := x[c : c+n]
			k := 0
			var a0, a1, a2, a3 T
			for ; k+4 <= n; k += 4 {
				a0 += v[k] * xs[k]
				a1 += v[k+1] * xs[k+1]
				a2 += v[k+2] * xs[k+2]
				a3 += v[k+3] * xs[k+3]
			}
			for ; k < n; k++ {
				a0 += v[k] * xs[k]
			}
			acc += a0 + a1 + a2 + a3
			vi += n
		}
		y[r] += acc
	}
}

func (a *Matrix[T]) oracleMulRangeMulti(x, y []T, k, r0, r1 int) {
	if r0 < 0 || r1 > a.rows || r0 > r1 {
		panic(fmt.Sprintf("vbl: MulRangeMulti [%d,%d) out of bounds", r0, r1))
	}
	if k == 0 {
		return
	}
	val, bcol := a.val, a.bcol
	for r := r0; r < r1; r++ {
		vi0, end := int(a.rowPtr[r]), int(a.rowPtr[r+1])
		bi0 := int(a.rowBlk[r])
		for l := 0; l < k; l++ {
			vi, bi := vi0, bi0
			var acc T
			for vi < end {
				c := int(bcol[bi])
				n := a.blockLen(bi)
				bi++
				v := val[vi : vi+n]
				j := 0
				var a0, a1, a2, a3 T
				for ; j+4 <= n; j += 4 {
					a0 += v[j] * x[(c+j)*k+l]
					a1 += v[j+1] * x[(c+j+1)*k+l]
					a2 += v[j+2] * x[(c+j+2)*k+l]
					a3 += v[j+3] * x[(c+j+3)*k+l]
				}
				for ; j < n; j++ {
					a0 += v[j] * x[(c+j)*k+l]
				}
				acc += a0 + a1 + a2 + a3
				vi += n
			}
			y[r*k+l] += acc
		}
	}
}

// oracleWidths are the panel widths checked: the single vector, the three
// named-accumulator widths, two array-accumulator widths and one replayed.
var oracleWidths = []int{1, 2, 3, 4, 5, 8, 9}

// specialVector returns n values, most uniform in (-1, 1), with −0,
// subnormals, ±Inf and NaN mixed in at fixed rates, so that products and
// sums meet every IEEE case: a −0 product, underflow, Inf·0 and NaN.
func specialVector[T floats.Float](n int, rng *rand.Rand) []T {
	tiny := math.SmallestNonzeroFloat64
	if floats.SizeOf[T]() == 4 {
		tiny = math.SmallestNonzeroFloat32
	}
	v := make([]T, n)
	for i := range v {
		switch p := rng.Intn(1000); {
		case p < 100:
			v[i] = T(math.Copysign(0, -1))
		case p < 150:
			v[i] = T(tiny * float64(1+rng.Intn(1000)) * float64(1-2*rng.Intn(2)))
		case p < 153:
			v[i] = T(math.Inf(1))
		case p < 156:
			v[i] = T(math.Inf(-1))
		case p < 158:
			v[i] = T(math.NaN())
		default:
			v[i] = T(rng.Float64()*2 - 1)
		}
	}
	return v
}

// sameBits reports whether two results are the same float bit for bit.
// Any NaN matches any NaN: Go does not say which operand's payload an
// add of two NaNs returns, and the register order may differ between two
// compilations of the same sum.
func sameBits[T floats.Float](a, b T) bool {
	if a != a && b != b {
		return true
	}
	switch a := any(a).(type) {
	case float32:
		return math.Float32bits(a) == math.Float32bits(any(b).(float32))
	default:
		return math.Float64bits(any(a).(float64)) == math.Float64bits(any(b).(float64))
	}
}

// checkOracle multiplies a over [r0, r1) by a k-wide panel x into a copy
// of y0, with the kernel and with the oracle, and fails on the first
// output that differs in any bit.
func checkOracle[T floats.Float](t *testing.T, a *Matrix[T], x, y0 []T, k, r0, r1 int) {
	t.Helper()
	got := append([]T(nil), y0...)
	want := append([]T(nil), y0...)
	if k == 1 {
		a.MulRange(x, got, r0, r1)
		a.oracleMulRange(x, want, r0, r1)
		checkSame(t, "MulRange", k, r0, r1, got, want)
		copy(got, y0)
	}
	a.MulRangeMulti(x, got, k, r0, r1)
	copy(want, y0)
	a.oracleMulRangeMulti(x, want, k, r0, r1)
	checkSame(t, "MulRangeMulti", k, r0, r1, got, want)
}

func checkSame[T floats.Float](t *testing.T, kernel string, k, r0, r1 int, got, want []T) {
	t.Helper()
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s k=%d [%d,%d): y[%d] (row %d, column %d) = %v, oracle %v",
				kernel, k, r0, r1, i, i/k, i%k, got[i], want[i])
		}
	}
}

// checkAllWidths runs checkOracle at every oracle width over the whole
// matrix and over three random row ranges, with x and the initial y drawn
// from specialVector.
func checkAllWidths[T floats.Float](t *testing.T, a *Matrix[T], seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rows := a.Rows()
	for _, k := range oracleWidths {
		x := specialVector[T](a.Cols()*k, rng)
		y0 := specialVector[T](rows*k, rng)
		checkOracle(t, a, x, y0, k, 0, rows)
		for i := 0; i < 3; i++ {
			r0, r1 := rng.Intn(rows+1), rng.Intn(rows+1)
			checkOracle(t, a, x, y0, k, min(r0, r1), max(r0, r1))
		}
	}
}

func TestMulMatchesOracle(t *testing.T) {
	double := map[string]*Matrix[float64]{
		"random4096":    New(testmat.Random[float64](4096, 4096, 0.008, 1), blocks.Vector),
		"random2048":    New(testmat.Random[float64](2048, 2048, 0.016, 1), blocks.Vector),
		"powerlaw60000": New(suite.PowerLaw[float64](60000, 8, 1.8, 1), blocks.Vector),
		"runs":          New(testmat.Runs[float64](300, 2000, 1), blocks.Scalar),
	}
	for name, m := range testmat.Corpus[float64]() {
		double["corpus/"+name] = New(m, blocks.Scalar)
	}
	single := map[string]*Matrix[float32]{
		"runs":    New(testmat.Runs[float32](300, 2000, 3), blocks.Scalar),
		"runs-dp": NewDP(testmat.Runs[float32](300, 2000, 3), blocks.Scalar),
	}
	if dp := single["runs-dp"]; dp.StoredScalars() == dp.NNZ() {
		t.Fatal("the sp DP instance merged no runs; it would not check zero fill")
	}
	for name, m := range testmat.Corpus[float32]() {
		single["corpus/"+name] = New(m, blocks.Scalar)
	}
	for name, a := range double {
		t.Run("f64/"+name, func(t *testing.T) { checkAllWidths(t, a, 1) })
	}
	for name, a := range single {
		t.Run("f32/"+name, func(t *testing.T) { checkAllWidths(t, a, 2) })
	}
}

// fuzzMatrix decodes a matrix of at most 64x64 from fuzz bytes: the
// dimensions from the first two bytes, then one bit per cell, row-major,
// with values (±Inf and NaN among them) drawn from rng.
func fuzzMatrix[T floats.Float](data []byte, rng *rand.Rand) *mat.COO[T] {
	rows, cols := 1, 1
	if len(data) >= 2 {
		rows, cols = int(data[0]%64)+1, int(data[1]%64)+1
		data = data[2:]
	}
	m := mat.New[T](rows, cols)
	vals := specialVector[T](rows*cols, rng)
	for bit := 0; bit < rows*cols && bit/8 < len(data); bit++ {
		if data[bit/8]&(1<<(bit%8)) != 0 {
			m.Add(int32(bit/cols), int32(bit%cols), vals[bit])
		}
	}
	m.Finalize()
	return m
}

// fuzzCheck builds every variant of one fuzzed matrix at one precision
// and checks it against the oracle at width k over [r0, r1) mod rows+1.
func fuzzCheck[T floats.Float](t *testing.T, data []byte, k int, r0, r1 uint16, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m := fuzzMatrix[T](data, rng)
	rows := m.Rows()
	lo, hi := int(r0)%(rows+1), int(r1)%(rows+1)
	lo, hi = min(lo, hi), max(lo, hi)
	x := specialVector[T](m.Cols()*k, rng)
	y0 := specialVector[T](rows*k, rng)
	for _, a := range []*Matrix[T]{New(m, blocks.Scalar), NewDP(m, blocks.Scalar)} {
		checkOracle(t, a, x, y0, k, lo, hi)
	}
}

// FuzzMulMatchesOracle checks both kernels against the oracle on fuzzed
// patterns, values, panel widths 1..9 and row ranges, at dp and sp (where
// the DP variant merges runs across one-column gaps).
func FuzzMulMatchesOracle(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint16(64), int64(1), []byte{8, 8, 0xAB, 0xCD, 0xEF, 0x01, 0x55, 0xFF, 0x0F, 0xF0})
	f.Add(uint8(1), uint16(2), uint16(5), int64(2), []byte{3, 40, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x5B, 0xB5})
	f.Add(uint8(7), uint16(9), uint16(1), int64(3), []byte{20, 20, 0x55, 0x55, 0x55, 0x55, 0xAA, 0xAA, 0xAA, 0xAA})
	f.Add(uint8(8), uint16(0), uint16(0), int64(4), []byte{0, 63, 0x6D, 0xDB, 0xB6, 0x6D, 0xDB, 0xB6})
	f.Fuzz(func(t *testing.T, k uint8, r0, r1 uint16, seed int64, data []byte) {
		width := int(k%9) + 1
		fuzzCheck[float64](t, data, width, r0, r1, seed)
		fuzzCheck[float32](t, data, width, r0, r1, seed)
	})
}

// TestMulZeroAllocs pins that no kernel width allocates: the panel
// accumulators, named or in an array, stay on the stack.
func TestMulZeroAllocs(t *testing.T) {
	m := testmat.Runs[float64](200, 1000, 4)
	a := New(m, blocks.Scalar)
	for _, k := range oracleWidths {
		x := floats.RandVector[float64](m.Cols()*k, 5)
		y := make([]float64, m.Rows()*k)
		if allocs := testing.AllocsPerRun(20, func() { a.MulRangeMulti(x, y, k, 0, m.Rows()) }); allocs != 0 {
			t.Errorf("k=%d: MulRangeMulti allocates %v times per call, want 0", k, allocs)
		}
	}
}
