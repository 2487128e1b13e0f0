package core_test

import (
	"math"
	"reflect"
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/core"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/machine"
	"blockspmv/internal/mat"
	"blockspmv/internal/profile"
	"blockspmv/internal/testmat"
)

// fakeMachine returns a machine with a fixed synthetic bandwidth so model
// outputs are deterministic.
func fakeMachine() machine.Machine {
	return machine.Machine{
		Cores: 1, L1DataBytes: 32 << 10, L2Bytes: 4 << 20, LLCBytes: 4 << 20,
		BandwidthBytesPerSec: 4 << 30, // 4 GiB/s
	}
}

// fakeProfile builds a synthetic kernel profile: block time grows
// sublinearly with block size (amortisation) and every nof is the given
// constant.
func fakeProfile(nof float64) *profile.Table {
	t := &profile.Table{Precision: "dp", Entries: make(map[profile.Key]profile.Entry)}
	for _, s := range blocks.AllShapes() {
		for _, impl := range blocks.Impls() {
			tb := 2e-9 * (1 + 0.5*float64(s.Elems()-1))
			if impl == blocks.Vector {
				tb *= 0.8
			}
			t.Entries[profile.Key{Shape: s, Impl: impl}] = profile.Entry{Tb: tb, Nof: nof}
		}
	}
	return t
}

func TestCandidateEnumeration(t *testing.T) {
	cands := core.Candidates()
	// Per impl: 1 CSR + 19*2 BCSR(+DEC) + 7*2 BCSD(+DEC) = 53; x2 impls.
	if len(cands) != 106 {
		t.Fatalf("enumerated %d candidates, want 106", len(cands))
	}
	// Scalar candidates must come first (MEM tie-breaking).
	for i, c := range cands[:53] {
		if c.Impl != blocks.Scalar {
			t.Fatalf("candidate %d (%v) is not scalar", i, c)
		}
	}
	seen := make(map[string]bool)
	for _, c := range cands {
		s := c.String()
		if seen[s] {
			t.Errorf("duplicate candidate %s", s)
		}
		seen[s] = true
	}
	if !seen["CSR"] || !seen["BCSR(2x3)"] || !seen["BCSD-DEC(d4)/simd"] {
		t.Error("expected candidates missing from enumeration")
	}
}

func TestCandidateString(t *testing.T) {
	c := core.Candidate{Method: core.BCSRDec, Shape: blocks.RectShape(4, 2), Impl: blocks.Vector}
	if got := c.String(); got != "BCSR-DEC(4x2)/simd" {
		t.Errorf("String = %q", got)
	}
	c = core.Candidate{Method: core.CSR, Shape: blocks.RectShape(1, 1), Impl: blocks.Scalar}
	if got := c.String(); got != "CSR" {
		t.Errorf("String = %q", got)
	}
}

// TestStatsMatchConstructedInstances verifies the construction-free
// candidate statistics against the real formats: the models' working sets
// and block counts must agree with what is actually built (up to the tiny
// side structures the implementations keep for clipped edge blocks).
func TestStatsMatchConstructedInstances(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		p := mat.PatternOf(m)
		for _, cs := range core.EnumerateStats(p, 8) {
			inst := core.Instantiate(m, cs.Cand)

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

			// Working sets agree within the edge-block bookkeeping: the
			// implementation keeps one extra 4-byte row/segment index per
			// boundary block, which the canonical formulas omit.
			sb, ib := cs.MatrixBytes(), inst.MatrixBytes()
			diff := math.Abs(float64(sb - ib))
			if diff > 4*float64(instBlocks)+16 {
				t.Errorf("%s %s: stats ws %d vs instance ws %d", name, cs.Cand, sb, ib)
			}

			// Padding accounting.
			if pad := inst.StoredScalars() - inst.NNZ(); cs.Padding != pad {
				t.Errorf("%s %s: stats padding %d, instance stores %d",
					name, cs.Cand, cs.Padding, pad)
			}
		}
	}
}

// TestEnumerateStatsAllMatchesStatsFor guards the caches the enumeration
// shares across candidates (block counts, partition pricings, SELL
// layouts, the CSR-DU stream size): every entry of EnumerateStatsAll
// (narrow widths) and of EnumerateStats (4 bytes), at both precisions,
// must equal what StatsFor computes for that candidate alone.
func TestEnumerateStatsAllMatchesStatsFor(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		p := mat.PatternOf(m)
		for _, valSize := range []int{4, 8} {
			stats := append(core.EnumerateStatsAll(p, valSize), core.EnumerateStats(p, valSize)...)
			for _, cs := range stats {
				if want := core.StatsFor(p, cs.Cand, valSize); !reflect.DeepEqual(cs, want) {
					t.Errorf("%s %s valSize=%d: enumerated %+v, StatsFor %+v", name, cs.Cand, valSize, cs, want)
				}
			}
		}
	}
}

func TestModelOrderingInvariants(t *testing.T) {
	m := testmat.Blocky[float64](96, 96, 2, 2, 120, 80, 7)
	p := mat.PatternOf(m)
	mach := fakeMachine()
	prof := fakeProfile(0.4)
	stats := core.EnumerateStats(p, 8)

	mem, memcomp, overlap := core.Mem{}, core.MemComp{}, core.Overlap{}
	for _, cs := range stats {
		tMem := mem.Predict(cs, mach, prof)
		tMC := memcomp.Predict(cs, mach, prof)
		tOv := overlap.Predict(cs, mach, prof)
		if tMem <= 0 || tMC <= 0 || tOv <= 0 {
			t.Fatalf("%s: non-positive prediction", cs.Cand)
		}
		// MEM ignores computation: a lower bound on both other models.
		if tMem > tMC+1e-15 {
			t.Errorf("%s: MEM %g > MEMCOMP %g", cs.Cand, tMem, tMC)
		}
		// With nof <= 1, OVERLAP sits between MEM and MEMCOMP.
		if tOv < tMem-1e-15 || tOv > tMC+1e-15 {
			t.Errorf("%s: OVERLAP %g outside [MEM %g, MEMCOMP %g]", cs.Cand, tOv, tMem, tMC)
		}
	}

	// With nof = 1 OVERLAP equals MEMCOMP; with nof = 0 it equals MEM for
	// single-component candidates.
	profOne := fakeProfile(1)
	profZero := fakeProfile(0)
	for _, cs := range stats {
		if d := overlap.Predict(cs, mach, profOne) - memcomp.Predict(cs, mach, profOne); math.Abs(d) > 1e-15 {
			t.Fatalf("%s: OVERLAP(nof=1) differs from MEMCOMP by %g", cs.Cand, d)
		}
		if d := overlap.Predict(cs, mach, profZero) - mem.Predict(cs, mach, profZero); math.Abs(d) > 1e-15 {
			t.Fatalf("%s: OVERLAP(nof=0) differs from MEM by %g", cs.Cand, d)
		}
	}
}

func TestMemPrefersSmallestWorkingSet(t *testing.T) {
	// On a pure-diagonal matrix, BCSD has the smallest working set of all
	// blocked methods (no padding, 1/b the column indices): MEM must rank
	// a BCSD variant over CSR.
	n := 4096
	m := mat.New[float64](n, n)
	for i := 0; i < n; i++ {
		m.Add(int32(i), int32(i), 1)
		if i+1 < n {
			m.Add(int32(i), int32(i+1), 1)
		}
	}
	m.Finalize()
	stats := core.EnumerateStats(mat.PatternOf(m), 8)
	best := core.Select(core.Mem{}, stats, fakeMachine(), fakeProfile(0.5))
	if best.Cand.Method != core.BCSD && best.Cand.Method != core.BCSDDec {
		t.Errorf("MEM selected %s on a bidiagonal matrix, want a BCSD variant", best.Cand)
	}
	if best.Cand.Impl != blocks.Scalar {
		t.Errorf("MEM tie-break selected %s, want the scalar variant", best.Cand)
	}
}

func TestMemCompPenalisesBlockCount(t *testing.T) {
	// Same ws, different nb: a candidate with fewer blocks must be
	// preferred by MEMCOMP when working sets tie. Construct directly.
	mach := fakeMachine()
	prof := fakeProfile(0.5)
	mk := func(blocksN int64, shape blocks.Shape) core.CandidateStats {
		return core.CandidateStats{
			Cand: core.Candidate{Method: core.BCSR, Shape: shape, Impl: blocks.Scalar},
			Rows: 100, Cols: 100, NNZ: 800,
			VectorBytes: 1600,
			Components: []core.ComponentStats{{
				Shape: shape, Impl: blocks.Scalar, Blocks: blocksN, WSBytes: 10000,
			}},
		}
	}
	few := mk(100, blocks.RectShape(2, 4))
	many := mk(800, blocks.RectShape(1, 1))
	mc := core.MemComp{}
	if mc.Predict(few, mach, prof) >= mc.Predict(many, mach, prof) {
		t.Error("MEMCOMP did not penalise the higher block count")
	}
}

func TestRankSortedAndStable(t *testing.T) {
	m := testmat.Random[float64](64, 64, 0.1, 3)
	stats := core.EnumerateStats(mat.PatternOf(m), 8)
	preds := core.Rank(core.Overlap{}, stats, fakeMachine(), fakeProfile(0.5))
	if len(preds) != len(stats) {
		t.Fatalf("Rank returned %d predictions for %d candidates", len(preds), len(stats))
	}
	for i := 1; i < len(preds); i++ {
		if preds[i].Seconds < preds[i-1].Seconds {
			t.Fatalf("Rank not sorted at %d", i)
		}
	}
	best := core.Select(core.Overlap{}, stats, fakeMachine(), fakeProfile(0.5))
	if best.Cand != preds[0].Cand {
		t.Errorf("Select = %s, Rank[0] = %s", best.Cand, preds[0].Cand)
	}
}

func TestModelByName(t *testing.T) {
	for _, name := range []string{"MEM", "MEMCOMP", "OVERLAP"} {
		m, err := core.ModelByName(name)
		if err != nil || m.Name() != name {
			t.Errorf("ModelByName(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := core.ModelByName("ORACLE"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestInstantiateProducesWorkingInstances(t *testing.T) {
	m := testmat.Blocky[float64](40, 40, 2, 2, 30, 20, 9)
	x := floats.RandVector[float64](40, 1)
	want := make([]float64, 40)
	m.MulVec(x, want)
	for _, c := range core.Candidates() {
		inst := core.Instantiate(m, c)
		if inst.Name() != c.String() {
			t.Errorf("instance name %q != candidate %q", inst.Name(), c.String())
		}
		got := make([]float64, 40)
		inst.Mul(x, got)
		if !floats.EqualWithin(got, want, 1e-9) {
			t.Errorf("%s: wrong product", c)
		}
	}
}

// TestDegenerateCSRConsistency verifies the paper's "CSR as 1x1 blocking"
// claim numerically: the CSR candidate stats must equal a hypothetical
// BCSR 1x1 stats (same blocks, same bytes).
func TestDegenerateCSRConsistency(t *testing.T) {
	m := testmat.Random[float64](50, 50, 0.1, 4)
	p := mat.PatternOf(m)
	csrStats := core.StatsFor(p, core.Candidate{Method: core.CSR, Shape: blocks.RectShape(1, 1), Impl: blocks.Scalar}, 8)
	bcsrStats := core.StatsFor(p, core.Candidate{Method: core.BCSR, Shape: blocks.RectShape(1, 1), Impl: blocks.Scalar}, 8)
	if csrStats.Components[0].Blocks != bcsrStats.Components[0].Blocks {
		t.Errorf("block counts differ: %d vs %d",
			csrStats.Components[0].Blocks, bcsrStats.Components[0].Blocks)
	}
	if csrStats.MatrixBytes() != bcsrStats.MatrixBytes() {
		t.Errorf("working sets differ: %d vs %d", csrStats.MatrixBytes(), bcsrStats.MatrixBytes())
	}
}

var _ formats.Instance[float64] = nil // keep the formats import honest

func TestOverlapLatModel(t *testing.T) {
	// An irregular matrix (scattered columns) vs a banded one: the
	// latency term must be large for the former and near zero relative.
	irregular := testmat.Random[float64](300, 300, 0.05, 20)
	mach := fakeMachine()
	mach.LoadLatencySeconds = 100e-9
	mach.LLCBytes = 1 << 10 // tiny LLC: full miss fraction
	prof := fakeProfile(0.5)

	stats := core.EnumerateStats(mat.PatternOf(irregular), 8)
	ov, lat := core.Overlap{}, core.OverlapLat{}
	for _, cs := range stats {
		if cs.IrregularAccesses <= 0 {
			t.Fatalf("%s: no irregular accesses recorded", cs.Cand)
		}
		pOv := ov.Predict(cs, mach, prof)
		pLat := lat.Predict(cs, mach, prof)
		if pLat <= pOv {
			t.Fatalf("%s: OVERLAP+LAT %g not above OVERLAP %g", cs.Cand, pLat, pOv)
		}
		// The added term is exactly missFraction*irregular*L; with a tiny
		// LLC the fraction is 1.
		want := pOv + float64(cs.IrregularAccesses)*mach.LoadLatencySeconds
		if math.Abs(pLat-want) > 1e-15 {
			t.Fatalf("%s: latency term %g, want %g", cs.Cand, pLat-pOv, want-pOv)
		}
	}

	// Without a measured latency the model degenerates to OVERLAP.
	mach.LoadLatencySeconds = 0
	for _, cs := range stats[:5] {
		if lat.Predict(cs, mach, prof) != ov.Predict(cs, mach, prof) {
			t.Fatal("OVERLAP+LAT without latency should equal OVERLAP")
		}
	}
}

func TestExtendedModels(t *testing.T) {
	ms := core.ExtendedModels()
	if len(ms) != 4 || ms[3].Name() != "OVERLAP+LAT" {
		t.Fatalf("ExtendedModels = %v", ms)
	}
	// The paper set stays untouched.
	if len(core.Models()) != 3 {
		t.Fatal("Models() must remain the paper's three")
	}
}

func TestMemWorksWithoutProfile(t *testing.T) {
	// MEM depends only on working sets; a nil profile must be fine.
	m := testmat.Random[float64](60, 60, 0.1, 21)
	stats := core.EnumerateStats(mat.PatternOf(m), 8)
	if got := (core.Mem{}).Predict(stats[0], fakeMachine(), nil); got <= 0 {
		t.Fatalf("MEM prediction %g", got)
	}
}
