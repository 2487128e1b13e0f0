package core_test

import (
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/core"
	"blockspmv/internal/floats"
	"blockspmv/internal/idx"
	"blockspmv/internal/mat"
	"blockspmv/internal/profile"
	"blockspmv/internal/suite"
	"blockspmv/internal/testmat"
)

func TestCandidatesSellEnumeration(t *testing.T) {
	// 2 impls x 3 chunks x 2 sigmas, at the one width the columns fit.
	for _, tc := range []struct {
		cols  int
		width idx.Width
		want  []string
	}{
		{1 << 20, idx.W32, []string{"SELL-4-1", "SELL-8-n", "SELL-32-n/simd"}},
		{5000, idx.W16, []string{"SELL-4-1/ix16", "SELL-32-n/ix16", "SELL-8-1/ix16/simd"}},
	} {
		cands := core.CandidatesSell(tc.cols)
		if len(cands) != 12 {
			t.Fatalf("%d cols: enumerated %d SELL candidates, want 12", tc.cols, len(cands))
		}
		for i, c := range cands[:6] {
			if c.Impl != blocks.Scalar {
				t.Fatalf("%d cols: candidate %d (%v) is not scalar", tc.cols, i, c)
			}
		}
		seen := make(map[string]bool)
		for _, c := range cands {
			if c.Method != core.SELL || c.Width != tc.width {
				t.Fatalf("%d cols: candidate %v, want SELL at %v", tc.cols, c, tc.width)
			}
			s := c.String()
			if seen[s] {
				t.Errorf("duplicate candidate %s", s)
			}
			seen[s] = true
		}
		for _, want := range tc.want {
			if !seen[want] {
				t.Errorf("%d cols: expected candidate %s missing", tc.cols, want)
			}
		}
	}
}

// TestSellStatsMatchInstancesExactly mirrors the partitioned audit: the
// construction-free SELL pricing is exact, so stats and built instances
// must agree to the byte, and candidate names must match instance names.
// Every served SELL candidate is audited at its own width and at the
// 4-byte width a matrix wider than 65536 columns is served.
func TestSellStatsMatchInstancesExactly(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		p := mat.PatternOf(m)
		for _, c := range append(core.CandidatesSell(m.Cols()), core.CandidatesSell(1<<20)...) {
			cs := core.StatsFor(p, c, 8)
			inst := core.Instantiate(m, c)
			if inst.Name() != c.String() {
				t.Errorf("%s: instance name %q != candidate %q", name, inst.Name(), c.String())
			}
			if cs.MatrixBytes() != inst.MatrixBytes() {
				t.Errorf("%s %s: stats ws %d != instance ws %d", name, c, cs.MatrixBytes(), inst.MatrixBytes())
			}
			if cs.Components[0].Blocks != inst.StoredScalars() {
				t.Errorf("%s %s: stats nb %d != stored scalars %d",
					name, c, cs.Components[0].Blocks, inst.StoredScalars())
			}
			if cs.Padding != inst.StoredScalars()-inst.NNZ() {
				t.Errorf("%s %s: stats padding %d != instance fill %d",
					name, c, cs.Padding, inst.StoredScalars()-inst.NNZ())
			}
			if cs.Components[0].Variant != blocks.SELL {
				t.Errorf("%s %s: component variant %v", name, c, cs.Components[0].Variant)
			}
		}
	}
}

// sellProfile extends the synthetic profile with the variant kernels'
// own per-unit costs, shaped like what Collect measures: the CSR-DU
// decoder pays delta decoding on top of the plain 1x1 kernel; VBR and
// 1D-VBL walk per stored scalar at about the plain cost; the SELL slice
// kernel amortizes loop overhead across C lockstep lanes, so its
// per-scalar time approaches the per-element time of the largest
// profiled blocks (fakeProfile's own amortisation curve: an 8-element
// block costs 9e-9 for 8 scalars).
func sellProfile(nof float64) *profile.Table {
	t := fakeProfile(nof)
	variants := []struct {
		v  blocks.Variant
		tb float64
	}{
		{blocks.DU, 2.4e-9},
		{blocks.VBR, 2.0e-9},
		{blocks.VBL, 2.0e-9},
		{blocks.SELL, 1.1e-9},
	}
	for _, ve := range variants {
		for _, impl := range blocks.Impls() {
			tb := ve.tb
			if impl == blocks.Vector {
				tb *= 0.8
			}
			t.Entries[profile.Key{Shape: blocks.RectShape(1, 1), Impl: impl, Variant: ve.v}] =
				profile.Entry{Tb: tb, Nof: nof}
		}
	}
	return t
}

// TestSelectPicksSELLOnPowerLaw is the acceptance criterion for the
// scatter-dominated archetypes: on a power-law graph, where every
// blocked and variable-block format streams more bytes than CSR, the
// profiled selection must pick a SELL variant over CSR — σ-sorting
// makes the padded stream nearly as small as CSR's while the lockstep
// slice kernel's lower per-scalar time wins the computational term.
//
// The honest negative is asserted alongside: the pure MEM model can
// never prefer SELL, because a padded stream plus a stored permutation
// is always more bytes than CSR — MEM is blind to the computational
// term that SELL actually wins on (the same blindness that makes it
// "select the non-simd version by default" in the paper).
func TestSelectPicksSELLOnPowerLaw(t *testing.T) {
	m := suite.PowerLaw[float64](6000, 12, 1.6, 42)
	p := mat.PatternOf(m)
	stats := core.EnumerateStatsAll(p, 8)
	mach := fakeMachine()
	prof := sellProfile(0.4)

	// σ-sorting must make the padding ratio small on the power-law
	// degree distribution — the structural fact the win rests on. The
	// baseline is the paper's 4-byte scalar CSR, which the served space
	// lists only at the narrow width the columns fit.
	csrStats := core.StatsFor(p, core.Candidate{Method: core.CSR, Shape: blocks.RectShape(1, 1), Impl: blocks.Scalar}, 8)
	var sellStats core.CandidateStats
	for _, cs := range stats {
		if cs.Cand.Method == core.SELL && cs.Cand.Chunk == 4 && cs.Cand.Sigma == 0 && cs.Cand.Impl == blocks.Scalar {
			sellStats = cs
		}
	}
	if sellStats.NNZ == 0 {
		t.Fatal("SELL-4-n candidate missing from EnumerateStatsAll")
	}
	if ratio := float64(sellStats.Padding) / float64(sellStats.NNZ); ratio > 0.10 {
		t.Fatalf("SELL-4-n padding ratio %.3f on power-law, want < 0.10 after σ-sort", ratio)
	}

	// The profiled model must select a SELL variant, and predict it
	// faster than the scalar CSR baseline.
	pred := core.SelectSafe(core.Overlap{}, stats, mach, prof)
	if pred.Degraded {
		t.Fatalf("selection degraded: %s", pred.Reason)
	}
	if pred.Cand.Method != core.SELL {
		t.Fatalf("OVERLAP selected %s on power-law, want a SELL variant", pred.Cand)
	}
	if csrSecs := (core.Overlap{}).Predict(csrStats, mach, prof); pred.Seconds >= csrSecs {
		t.Fatalf("selected %s predicted %g s, not faster than CSR %g s", pred.Cand, pred.Seconds, csrSecs)
	}

	// Honest negative: MEM alone still refuses SELL (more streamed
	// bytes than CSR, and MEM sees nothing else).
	if memPred := core.Select(core.Mem{}, stats, mach, prof); memPred.Cand.Method == core.SELL {
		t.Fatalf("MEM selected %s: a padded stream should never be the byte argmin", memPred.Cand)
	}

	// The winner builds, streams exactly the priced bytes, and computes
	// the right product.
	inst := core.Instantiate(m, pred.Cand)
	if inst.Name() != pred.Cand.String() {
		t.Errorf("instance name %q != candidate %q", inst.Name(), pred.Cand.String())
	}
	var predBytes int64
	for _, cs := range stats {
		if cs.Cand == pred.Cand {
			predBytes = cs.MatrixBytes()
		}
	}
	if inst.MatrixBytes() != predBytes {
		t.Errorf("built instance streams %d bytes, priced %d", inst.MatrixBytes(), predBytes)
	}
	x := floats.RandVector[float64](m.Cols(), 5)
	want := make([]float64, m.Rows())
	got := make([]float64, m.Rows())
	m.MulVec(x, want)
	inst.Mul(x, got)
	for i := range got {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("selected instance product mismatch at row %d", i)
		}
	}
}
