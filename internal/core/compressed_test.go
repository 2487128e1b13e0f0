package core_test

import (
	"math"
	"strings"
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/core"
	"blockspmv/internal/floats"
	"blockspmv/internal/idx"
	"blockspmv/internal/mat"
	"blockspmv/internal/testmat"
)

func TestCandidatesCompressedEnumeration(t *testing.T) {
	// Every fixed-shape and SELL candidate appears once, at the one width
	// the columns fit: per impl CSR-DU plus the 53 fixed shapes, then the
	// 8 variable-block and 12 SELL candidates.
	for _, tc := range []struct {
		cols  int
		width idx.Width
		want  []string
	}{
		{100, idx.W8, []string{"CSR-DU", "CSR-DU/simd", "CSR/ix8", "BCSR(2x3)/ix8", "BCSD-DEC(d4)/ix8/simd", "SELL-8-n/ix8"}},
		{50000, idx.W16, []string{"CSR/ix16", "BCSR-DEC(4x2)/ix16/simd", "SELL-4-1/ix16"}},
		{1 << 20, idx.W32, []string{"CSR-DU", "CSR", "BCSR(2x3)", "BCSD-DEC(d4)/simd", "SELL-8-n"}},
	} {
		cands := core.CandidatesFor(tc.cols)
		if len(cands) != 128 {
			t.Fatalf("%d cols: enumerated %d candidates, want 128", tc.cols, len(cands))
		}
		for i, c := range cands[:54] {
			if c.Impl != blocks.Scalar {
				t.Fatalf("%d cols: candidate %d (%v) is not scalar", tc.cols, i, c)
			}
		}
		seen := make(map[string]bool)
		for _, c := range cands {
			s := c.String()
			if seen[s] {
				t.Errorf("%d cols: duplicate candidate %s", tc.cols, s)
			}
			seen[s] = true
			if c.Method == core.CSRDU || c.Method == core.VBR || c.Method == core.VBL {
				if c.Width != idx.W32 {
					t.Errorf("%d cols: %s carries width %v", tc.cols, s, c.Width)
				}
			} else if c.Width != tc.width {
				t.Errorf("%d cols: %s: width %v, want %v", tc.cols, s, c.Width, tc.width)
			}
		}
		for _, want := range tc.want {
			if !seen[want] {
				t.Errorf("%d cols: expected candidate %s missing", tc.cols, want)
			}
		}
	}
}

// TestCompressedStatsMatchInstances is the compressed-variant analog of
// TestStatsMatchConstructedInstances: construction-free statistics must
// agree with the built formats, and candidate names with instance names.
// It audits the served space plus every twin it drops: each fixed-shape
// and SELL candidate at both widths, CSR-DU, and all eight variable-block
// candidates.
func TestCompressedStatsMatchInstances(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		p := mat.PatternOf(m)
		all := core.EnumerateStatsAll(p, 8)
		twins, _ := droppedTwins(p, all)
		audited := append(all, twins...)
		if len(audited) != 246 {
			t.Errorf("%s: audited %d candidates, want 246", name, len(audited))
		}
		for _, cs := range audited {
			inst := core.Instantiate(m, cs.Cand)
			if inst.Name() != cs.Cand.String() {
				t.Errorf("%s: instance name %q != candidate %q", name, inst.Name(), cs.Cand.String())
			}

			var statBlocks int64
			for _, comp := range cs.Components {
				statBlocks += comp.Blocks
			}
			var instBlocks int64
			for _, comp := range inst.Components() {
				instBlocks += comp.Blocks
			}
			if statBlocks != instBlocks {
				t.Errorf("%s %s: stats count %d blocks, instance stores %d",
					name, cs.Cand, statBlocks, instBlocks)
			}

			sb, ib := cs.MatrixBytes(), inst.MatrixBytes()
			if cs.Cand.Method == core.CSRDU {
				// The DU size model is exact: same pointer arrays, and
				// StreamBytes walks the same unit grouping as the encoder.
				if sb != ib {
					t.Errorf("%s %s: stats ws %d != instance ws %d", name, cs.Cand, sb, ib)
				}
				continue
			}
			// Blocked formats keep edge bookkeeping the canonical formulas
			// omit, as in the baseline stats test — and clipped edge blocks
			// additionally keep full-width column indices (up to 3 more
			// bytes each when the interior narrowed to uint8).
			if diff := math.Abs(float64(sb - ib)); diff > 8*float64(instBlocks)+16 {
				t.Errorf("%s %s: stats ws %d vs instance ws %d", name, cs.Cand, sb, ib)
			}
		}
	}
}

// TestCompressedInstancesMultiplyCorrectly runs every served candidate
// of a narrow matrix through Instantiate and checks the product against
// the COO reference.
func TestCompressedInstancesMultiplyCorrectly(t *testing.T) {
	m := testmat.Blocky[float64](48, 48, 2, 2, 40, 25, 11)
	x := floats.RandVector[float64](48, 2)
	want := make([]float64, 48)
	m.MulVec(x, want)
	for _, c := range core.CandidatesFor(m.Cols()) {
		inst := core.Instantiate(m, c)
		got := make([]float64, 48)
		inst.Mul(x, got)
		if !floats.EqualWithin(got, want, 1e-9) {
			t.Errorf("%s: wrong product", c)
		}
	}
}

// TestCompressedShrinksWorkingSet verifies the point of the exercise:
// on a matrix admitting narrow indices, the best compressed candidate
// strictly beats the best baseline candidate under MEM, because its
// matrix stream is strictly smaller at identical structure.
func TestCompressedShrinksWorkingSet(t *testing.T) {
	m := testmat.Random[float64](400, 400, 0.05, 13)
	p := mat.PatternOf(m)
	mach := fakeMachine()
	prof := fakeProfile(0.5)

	base := core.Select(core.Mem{}, core.EnumerateStats(p, 8), mach, prof)
	all := core.Select(core.Mem{}, core.EnumerateStatsAll(p, 8), mach, prof)
	if all.Seconds >= base.Seconds {
		t.Errorf("MEM best over superset %s (%g s) not below baseline best %s (%g s)",
			all.Cand, all.Seconds, base.Cand, base.Seconds)
	}
	if all.Cand.Width == idx.W32 && all.Cand.Method != core.CSRDU {
		t.Errorf("MEM selected uncompressed %s from the superset", all.Cand)
	}
}

// TestDUPredictionFallsBackToPlainProfile ensures profiles without DU
// entries (older artifacts, synthetic test profiles) still price CSR-DU
// candidates using the plain 1x1 timing instead of panicking.
func TestDUPredictionFallsBackToPlainProfile(t *testing.T) {
	m := testmat.Random[float64](200, 200, 0.05, 5)
	p := mat.PatternOf(m)
	cs := core.StatsFor(p, core.Candidate{Method: core.CSRDU, Shape: blocks.RectShape(1, 1), Impl: blocks.Scalar}, 8)
	if got := (core.MemComp{}).Predict(cs, fakeMachine(), fakeProfile(0.5)); got <= 0 {
		t.Fatalf("MEMCOMP prediction %g", got)
	}
	ex := core.Explain(cs, fakeMachine(), fakeProfile(0.5))
	if !strings.HasPrefix(ex.String(), "CSR-DU:") {
		t.Errorf("Explain header = %q", ex.String())
	}
}
