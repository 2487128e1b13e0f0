package sell_test

import (
	"fmt"
	"math/rand"
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/conformance"
	"blockspmv/internal/csr"
	"blockspmv/internal/floats"
	"blockspmv/internal/mat"
	"blockspmv/internal/sell"
	"blockspmv/internal/testmat"
)

// params is the (C, σ) grid the unit tests sweep: the selection space's
// C values crossed with natural order, one-slice sorting, a mid-size
// scope and whole-matrix sorting.
var params = []struct{ chunk, sigma int }{
	{4, 1}, {4, 0},
	{8, 1}, {8, 8}, {8, 64}, {8, 0},
	{32, 1}, {32, 0},
	{3, 0}, // no generated kernel: exercises the generic fallback
}

func TestConformance(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		for _, p := range params {
			for _, impl := range blocks.Impls() {
				t.Run(fmt.Sprintf("%s/C%d-s%d/%v", name, p.chunk, p.sigma, impl), func(t *testing.T) {
					conformance.Check(t, m, sell.New(m, p.chunk, p.sigma, impl))
				})
			}
		}
	}
}

func TestConformanceSingle(t *testing.T) {
	for name, m := range testmat.Corpus[float32]() {
		for _, p := range params {
			t.Run(fmt.Sprintf("%s/C%d-s%d", name, p.chunk, p.sigma), func(t *testing.T) {
				conformance.Check(t, m, sell.New(m, p.chunk, p.sigma, blocks.Scalar))
			})
		}
	}
}

func TestConformanceNarrowIndices(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		for _, p := range params {
			t.Run(fmt.Sprintf("%s/C%d-s%d", name, p.chunk, p.sigma), func(t *testing.T) {
				if m.Cols() <= 1<<16 {
					conformance.Check(t, m, sell.NewIx[float64, uint16](m, p.chunk, p.sigma, blocks.Scalar))
				}
				if m.Cols() <= 1<<8 {
					conformance.Check(t, m, sell.NewIx[float64, uint8](m, p.chunk, p.sigma, blocks.Vector))
				}
				conformance.Check(t, m, sell.NewCompact(m, p.chunk, p.sigma, blocks.Scalar))
			})
		}
	}
}

// TestBitIdenticalToCSR checks the headline numerical contract: per lane
// the scalar SELL kernels accumulate j-ascending with one accumulator,
// exactly the scalar CSR order, and padding appends exact zeros — so
// Mul must equal CSR bit for bit, for every σ (sorting permutes storage,
// not arithmetic).
func TestBitIdenticalToCSR(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		ref := csr.FromCOO(m, blocks.Scalar)
		x := make([]float64, m.Cols())
		rng := rand.New(rand.NewSource(7))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, m.Rows())
		ref.Mul(x, want)
		for _, p := range params {
			a := sell.New(m, p.chunk, p.sigma, blocks.Scalar)
			got := make([]float64, m.Rows())
			a.Mul(x, got)
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("%s %s: y[%d] = %v, CSR %v (must be bit-identical)",
						name, a.Name(), r, got[r], want[r])
				}
			}
		}
	}
}

// TestSELLStreamBytesExact is the golden byte audit of the ISSUE's
// acceptance criteria: the construction-free StreamBytes over the
// pattern must equal the built instance's MatrixBytes byte for byte,
// for every (C, σ) and index width, and LayoutOf.Padded must equal the
// instance's StoredScalars.
func TestSELLStreamBytesExact(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		p := mat.PatternOf(m)
		for _, pr := range params {
			l := sell.LayoutOf(p, pr.chunk, pr.sigma)
			check := func(inst interface {
				MatrixBytes() int64
				StoredScalars() int64
				Name() string
			}, idxBytes int) {
				if got := l.StreamBytes(p.Rows, 8, idxBytes); got != inst.MatrixBytes() {
					t.Errorf("%s %s: StreamBytes %d != MatrixBytes %d",
						name, inst.Name(), got, inst.MatrixBytes())
				}
				if l.Padded != inst.StoredScalars() {
					t.Errorf("%s %s: Layout.Padded %d != StoredScalars %d",
						name, inst.Name(), l.Padded, inst.StoredScalars())
				}
			}
			check(sell.New(m, pr.chunk, pr.sigma, blocks.Scalar), 4)
			if m.Cols() <= 1<<16 {
				check(sell.NewIx[float64, uint16](m, pr.chunk, pr.sigma, blocks.Scalar), 2)
			}
			if m.Cols() <= 1<<8 {
				check(sell.NewIx[float64, uint8](m, pr.chunk, pr.sigma, blocks.Scalar), 1)
			}
		}
	}
}

// TestSELLPaddingNeverWorseThanELL is the σ-sort monotonicity property:
// whole-matrix sorting can only shrink (never grow) the padded scalar
// count relative to the unsorted σ=1 layout, at every chunk height.
// Sorting gathers rows of similar length into the same slice, so each
// slice's max-length padding target is closer to its members.
func TestSELLPaddingNeverWorseThanELL(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		p := mat.PatternOf(m)
		for _, c := range []int{4, 8, 32} {
			unsorted := sell.LayoutOf(p, c, 1)
			sorted := sell.LayoutOf(p, c, 0)
			if sorted.Padded > unsorted.Padded {
				t.Errorf("%s C=%d: σ=n padded %d > σ=1 padded %d",
					name, c, sorted.Padded, unsorted.Padded)
			}
			// Intermediate scopes sit between the extremes on the same
			// argument, window by window.
			mid := sell.LayoutOf(p, c, 4*c)
			if sorted.Padded > mid.Padded || mid.Padded > unsorted.Padded {
				t.Errorf("%s C=%d: padded not monotone in σ: n=%d σ=%d: %d 1=%d",
					name, c, sorted.Padded, 4*c, mid.Padded, unsorted.Padded)
			}
		}
	}
}

// TestSigmaCEqualsSigmaOne documents the honest caveat: sorting within a
// scope of exactly one slice (σ = C) cannot change any slice's max
// length, so the padded layout is byte-identical to σ=1. The bench
// sweep includes σ=C anyway to show the flat line.
func TestSigmaCEqualsSigmaOne(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		p := mat.PatternOf(m)
		for _, c := range []int{4, 8, 32} {
			if a, b := sell.LayoutOf(p, c, 1), sell.LayoutOf(p, c, c); a != b {
				t.Errorf("%s C=%d: σ=C layout %+v differs from σ=1 %+v", name, c, b, a)
			}
		}
	}
}

func TestNames(t *testing.T) {
	m := testmat.Random[float64](40, 40, 0.1, 1)
	cases := []struct {
		got, want string
	}{
		{sell.New(m, 8, 1, blocks.Scalar).Name(), "SELL-8-1"},
		{sell.New(m, 8, 0, blocks.Scalar).Name(), "SELL-8-n"},
		{sell.New(m, 4, 64, blocks.Vector).Name(), "SELL-4-64/simd"},
		{sell.NewIx[float64, uint16](m, 32, 0, blocks.Scalar).Name(), "SELL-32-n/ix16"},
		{sell.NewIx[float64, uint8](m, 8, 8, blocks.Vector).Name(), "SELL-8-8/ix8/simd"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("Name = %q, want %q", c.got, c.want)
		}
	}
}

func TestScopeRounding(t *testing.T) {
	m := testmat.Random[float64](100, 50, 0.1, 2)
	cases := []struct {
		chunk, sigma, wantScope, wantAlign int
	}{
		{8, 1, 8, 8},        // identity order, slice-sized scope
		{8, 8, 8, 8},        // one-slice scope
		{8, 12, 16, 16},     // rounded up to a chunk multiple
		{8, 0, 104, 100},    // whole matrix, align capped at rows
		{8, 1000, 104, 100}, // σ > rows clamps to whole matrix
	}
	for _, c := range cases {
		a := sell.New(m, c.chunk, c.sigma, blocks.Scalar)
		if a.Scope() != c.wantScope || a.RowAlign() != c.wantAlign {
			t.Errorf("C=%d σ=%d: scope %d align %d, want %d/%d",
				c.chunk, c.sigma, a.Scope(), a.RowAlign(), c.wantScope, c.wantAlign)
		}
	}
}

func TestDecodeStreamRoundTrip(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		for _, p := range params {
			a := sell.New(m, p.chunk, p.sigma, blocks.Scalar)
			got := a.DecodeStream()
			if err := equalCOO(m, got); err != nil {
				t.Errorf("%s C=%d σ=%d: decode mismatch: %v", name, p.chunk, p.sigma, err)
			}
		}
	}
}

func equalCOO[T floats.Float](want, got *mat.COO[T]) error {
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() {
		return fmt.Errorf("dims %dx%d != %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	we, ge := want.Entries(), got.Entries()
	if len(we) != len(ge) {
		return fmt.Errorf("%d entries, want %d", len(ge), len(we))
	}
	for i := range we {
		if we[i] != ge[i] {
			return fmt.Errorf("entry %d: %+v != %+v", i, ge[i], we[i])
		}
	}
	return nil
}

// FuzzSELLConstruction builds SELL-C-σ over arbitrary patterns with
// strictly nonzero values and checks the structural invariants: the
// permutation is a bijection on rows, every row fits its slice's width,
// the padded stream decodes back to the original matrix (so padded
// lanes contribute nothing), the construction-free layout matches the
// instance exactly, and Mul is bit-identical to CSR.
func FuzzSELLConstruction(f *testing.F) {
	f.Add([]byte{8, 8, 0xAB, 0xCD, 0xEF, 0x01}, uint8(8), uint8(0))
	f.Add([]byte{1, 1, 0xFF}, uint8(1), uint8(1))
	f.Add([]byte{16, 4, 0x00, 0x12, 0x7F}, uint8(4), uint8(6))
	f.Add([]byte{31, 2, 0xF0, 0x0F, 0x55}, uint8(32), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, chunkB, sigmaB uint8) {
		if len(data) < 2 {
			return
		}
		rows := int(data[0]%32) + 1
		cols := int(data[1]%32) + 1
		chunk := int(chunkB%32) + 1
		sigma := int(sigmaB) - 1 // -1..254: includes the global sentinel
		m := mat.New[float64](rows, cols)
		bit := 0
		nnz := 0
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				byteIdx := 2 + bit/8
				if byteIdx < len(data) && data[byteIdx]&(1<<(bit%8)) != 0 {
					m.Add(int32(r), int32(c), float64(bit%13)+1) // nonzero
					nnz++
				}
				bit++
			}
		}
		m.Finalize()
		a := sell.New(m, chunk, sigma, blocks.Scalar)

		// Permutation bijection.
		seen := make([]bool, rows)
		for _, r := range a.Perm() {
			if r < 0 || int(r) >= rows || seen[r] {
				t.Fatalf("perm not a bijection: row %d", r)
			}
			seen[r] = true
		}

		// Every row's length fits its slice width, and the widths
		// reproduce the construction-free layout.
		lens := m.RowLengths()
		var padded int64
		for s := 0; s < a.Slices(); s++ {
			w := a.SliceWidth(s)
			padded += int64(w * chunk)
			for i := s * chunk; i < (s+1)*chunk && i < rows; i++ {
				if l := lens[a.Perm()[i]]; l > w {
					t.Fatalf("slice %d width %d < row %d length %d", s, w, a.Perm()[i], l)
				}
			}
		}
		if padded != a.StoredScalars() {
			t.Fatalf("slice widths sum to %d scalars, StoredScalars %d", padded, a.StoredScalars())
		}
		l := sell.LayoutOf(mat.PatternOf(m), chunk, sigma)
		if l.Padded != padded || l.StreamBytes(rows, 8, 4) != a.MatrixBytes() {
			t.Fatalf("layout %+v disagrees with instance (padded %d, bytes %d)",
				l, padded, a.MatrixBytes())
		}

		// The stream decodes back to the matrix: padded lanes are
		// invisible.
		if err := equalCOO(m, a.DecodeStream()); err != nil {
			t.Fatalf("decode: %v", err)
		}

		// Bit-identical to CSR.
		x := make([]float64, cols)
		for i := range x {
			x[i] = float64(i%7) - 3.14
		}
		want := make([]float64, rows)
		csr.FromCOO(m, blocks.Scalar).Mul(x, want)
		got := make([]float64, rows)
		a.Mul(x, got)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("y[%d] = %v, CSR %v", r, got[r], want[r])
			}
		}
	})
}
