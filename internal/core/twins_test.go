package core_test

import (
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/core"
	"blockspmv/internal/idx"
	"blockspmv/internal/mat"
	"blockspmv/internal/testmat"
)

// droppedTwins rebuilds with StatsFor every candidate EnumerateStatsAll
// leaves out of set: the 4-byte form of each narrow fixed-shape and SELL
// candidate, and each DP candidate missing from the set. Each twin is
// paired with the candidate in set it shadows.
func droppedTwins(p *mat.Pattern, set []core.CandidateStats) (twins, shadowed []core.CandidateStats) {
	in := make(map[core.Candidate]core.CandidateStats, len(set))
	for _, cs := range set {
		in[cs.Cand] = cs
	}
	for _, cs := range set {
		// Only fixed-shape and SELL candidates carry a narrow width.
		if cs.Cand.Width != idx.W32 {
			c := cs.Cand
			c.Width = idx.W32
			twins = append(twins, core.StatsFor(p, c, 8))
			shadowed = append(shadowed, cs)
		}
	}
	for _, c := range core.CandidatesPartitioned() {
		if _, ok := in[c]; ok || c.Part != core.PartDP {
			continue
		}
		runs := c
		runs.Part = core.PartRuns
		twins = append(twins, core.StatsFor(p, c, 8))
		shadowed = append(shadowed, in[runs])
	}
	return twins, shadowed
}

// TestDroppedTwinsNeverWin is the proof obligation of the served space:
// nothing EnumerateStatsAll leaves out could have been selected. On every
// corpus matrix with a nonzero, under every model at k=1 and k=8, adding
// the dropped twins back does not move the selection, each 4-byte twin
// prices strictly above its narrow candidate, and each dropped DP twin
// prices exactly like its run-detection candidate, which precedes it.
// It fails if the index width ever becomes a profile key or a model
// input.
func TestDroppedTwinsNeverWin(t *testing.T) {
	mach := fakeMachine()
	mach.LoadLatencySeconds = 80e-9
	prof := sellProfile(0.4)
	for name, m := range testmat.Corpus[float64]() {
		if m.NNZ() == 0 {
			continue
		}
		p := mat.PatternOf(m)
		set := core.EnumerateStatsAll(p, 8)
		twins, shadowed := droppedTwins(p, set)
		if len(twins) == 0 {
			t.Fatalf("%s: no dropped twin rebuilt", name)
		}
		for _, model := range core.ExtendedModels() {
			for _, k := range []int{1, 8} {
				want := core.SelectSafe(model, core.WithRHS(set, k), mach, prof)
				got := core.SelectSafe(model, core.WithRHS(append(set[:len(set):len(set)], twins...), k), mach, prof)
				if want.Degraded || got.Cand != want.Cand || got.Seconds != want.Seconds {
					t.Errorf("%s %s k=%d: with twins %s (%g s), without %s (%g s, degraded %v)",
						name, model.Name(), k, got.Cand, got.Seconds, want.Cand, want.Seconds, want.Degraded)
				}
				for i, tw := range core.WithRHS(twins, k) {
					sh := shadowed[i]
					sh.RHS = k
					ts, ss := model.Predict(tw, mach, prof), model.Predict(sh, mach, prof)
					switch {
					case tw.Cand.Part == core.PartDP && ts != ss:
						t.Errorf("%s %s k=%d: dropped %s prices %g s, %s %g s",
							name, model.Name(), k, tw.Cand, ts, sh.Cand, ss)
					case tw.Cand.Part != core.PartDP && ts <= ss:
						t.Errorf("%s %s k=%d: 4-byte %s prices %g s, not above %s at %g s",
							name, model.Name(), k, tw.Cand, ts, sh.Cand, ss)
					}
				}
			}
		}
	}
}

// TestFallbackPricesBaselineOutsideTheSet pins the degraded prediction's
// streaming bound: the served space holds no 4-byte scalar CSR on a
// narrow matrix, yet a degraded selection still names CSR and prices it
// exactly as StatsFor does, on a 0x0 matrix too.
func TestFallbackPricesBaselineOutsideTheSet(t *testing.T) {
	empty := mat.New[float64](0, 0)
	empty.Finalize()
	ms := testmat.Corpus[float64]()
	ms["0x0"] = empty
	csr := core.Candidate{Method: core.CSR, Shape: blocks.RectShape(1, 1), Impl: blocks.Scalar}
	for name, m := range ms {
		p := mat.PatternOf(m)
		for _, k := range []int{1, 8} {
			for _, valSize := range []int{4, 8} {
				stats := core.WithRHS(core.EnumerateStatsAll(p, valSize), k)
				pred := core.SelectSafe(core.Overlap{}, stats, fakeMachine(), nil)
				base := core.StatsFor(p, csr, valSize)
				base.RHS = k
				want := (core.Mem{}).Predict(base, fakeMachine(), nil)
				if !pred.Degraded || pred.Cand != csr || pred.Seconds != want {
					t.Errorf("%s k=%d valSize=%d: degraded %v %s %g s, want CSR at %g s",
						name, k, valSize, pred.Degraded, pred.Cand, pred.Seconds, want)
				}
			}
		}
	}
}
