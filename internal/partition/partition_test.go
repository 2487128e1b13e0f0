package partition_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
	"blockspmv/internal/mat"
	"blockspmv/internal/partition"
	"blockspmv/internal/suite"
	"blockspmv/internal/testmat"
	"blockspmv/internal/vbl"
	"blockspmv/internal/vbr"
)

// corpus returns the shared edge-case matrices plus the degenerate shapes
// the property tests must survive: 0x0, zero-nnz, single row/column.
func corpus[T floats.Float]() map[string]*mat.COO[T] {
	ms := testmat.Corpus[T]()
	zz := mat.New[T](0, 0)
	zz.Finalize()
	ms["zero"] = zz
	zr := mat.New[T](0, 7)
	zr.Finalize()
	ms["zerorows"] = zr
	zc := mat.New[T](7, 0)
	zc.Finalize()
	ms["zerocols"] = zc
	ms["shared"] = SharedSparsity[T](40, 200, 5, 6, 0.05, 42)
	// Runs one column apart: at 4-byte values the VBL DP merges across
	// every gap, at 8-byte values it keeps the runs.
	gaps := mat.New[T](4, 24)
	for r := int32(0); r < 4; r++ {
		for c := r % 2; c < 24; c += 2 {
			gaps.Add(r, c, T(r+c+1))
		}
	}
	gaps.Finalize()
	ms["gaps"] = gaps
	return ms
}

// dpCorpus is corpus plus the random and blocky matrices the DP property
// tests run on.
func dpCorpus[T floats.Float]() map[string]*mat.COO[T] {
	ms := corpus[T]()
	for seed := int64(100); seed < 110; seed++ {
		ms[fmt.Sprintf("rand%d", seed)] = testmat.Random[T](31, 47, 0.07, seed)
		ms[fmt.Sprintf("blocky%d", seed)] = testmat.Blocky[T](48, 48, 3, 3, 20, 15, seed)
	}
	return ms
}

// SharedSparsity builds a matrix of row groups with near-identical
// scattered patterns: groups rows tall, each group drawing cells columns
// at scattered positions, with a perturb fraction of entries dropped per
// row so run detection fragments while the DP can still merge.
func SharedSparsity[T floats.Float](rows, cols, group, cells int, perturb float64, seed int64) *mat.COO[T] {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New[T](rows, cols)
	for r0 := 0; r0 < rows; r0 += group {
		base := make([]int32, 0, cells)
		used := map[int32]bool{}
		for len(base) < cells {
			c := int32(rng.Intn(cols))
			if !used[c] {
				used[c] = true
				base = append(base, c)
			}
		}
		for r := r0; r < min(r0+group, rows); r++ {
			for _, c := range base {
				if rng.Float64() < perturb {
					continue
				}
				m.Add(int32(r), c, T(rng.Float64()+0.5))
			}
		}
	}
	m.Finalize()
	return m
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		pt   partition.VBRPartition
	}{
		{"empty rpntr", partition.VBRPartition{Rpntr: nil, Cpntr: []int32{0, 4}}},
		{"bad start", partition.VBRPartition{Rpntr: []int32{1, 8}, Cpntr: []int32{0, 4}}},
		{"bad end", partition.VBRPartition{Rpntr: []int32{0, 7}, Cpntr: []int32{0, 4}}},
		{"non-monotone", partition.VBRPartition{Rpntr: []int32{0, 5, 3, 8}, Cpntr: []int32{0, 4}}},
		{"bad cpntr", partition.VBRPartition{Rpntr: []int32{0, 8}, Cpntr: []int32{0, 9}}},
	}
	for _, tc := range cases {
		if err := tc.pt.Validate(8, 4); err == nil {
			t.Errorf("%s: Validate accepted invalid partition", tc.name)
		}
	}
	ok := partition.VBRPartition{Rpntr: []int32{0, 3, 3, 8}, Cpntr: []int32{0, 4}}
	if err := ok.Validate(8, 4); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
}

// TestVBRStatsMatchesConstruction is the golden audit of the acceptance
// criteria: the construction-free pricing of a partition must equal the
// built instance's MatrixBytes, StoredScalars and Blocks exactly, for
// both the identity heuristic and the DP partition, at both precisions.
func TestVBRStatsMatchesConstruction(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testVBRStatsMatch[float64](t) })
	t.Run("float32", func(t *testing.T) { testVBRStatsMatch[float32](t) })
}

func testVBRStatsMatch[T floats.Float](t *testing.T) {
	valSize := floats.SizeOf[T]()
	for name, m := range corpus[T]() {
		p := mat.PatternOf(m)
		for _, dp := range []bool{false, true} {
			var pt partition.VBRPartition
			var inst *vbr.Matrix[T]
			if dp {
				pt = partition.AggregateVBR(p, valSize)
				inst = vbr.NewDP(m, blocks.Scalar)
			} else {
				pt = partition.Identity(p)
				inst = vbr.New(m, blocks.Scalar)
			}
			st, err := partition.VBRStats(p, pt, valSize)
			if err != nil {
				t.Fatalf("%s dp=%v: VBRStats: %v", name, dp, err)
			}
			if st.Bytes != inst.MatrixBytes() {
				t.Errorf("%s dp=%v: priced %d bytes, built %d", name, dp, st.Bytes, inst.MatrixBytes())
			}
			if st.Stored != inst.StoredScalars() {
				t.Errorf("%s dp=%v: priced %d stored, built %d", name, dp, st.Stored, inst.StoredScalars())
			}
			if st.Blocks != inst.Blocks() {
				t.Errorf("%s dp=%v: priced %d blocks, built %d", name, dp, st.Blocks, inst.Blocks())
			}
			if st.BlockRows != inst.BlockRows() || st.BlockCols != inst.BlockCols() {
				t.Errorf("%s dp=%v: priced %dx%d partition, built %dx%d",
					name, dp, st.BlockRows, st.BlockCols, inst.BlockRows(), inst.BlockCols())
			}
		}
	}
}

// TestVBLStatsMatchesConstruction audits the 1D-VBL pricing the same way,
// including the rowBlk bytes the PR-2 carve-out used to exclude.
func TestVBLStatsMatchesConstruction(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testVBLStatsMatch[float64](t) })
	t.Run("float32", func(t *testing.T) { testVBLStatsMatch[float32](t) })
}

func testVBLStatsMatch[T floats.Float](t *testing.T) {
	valSize := floats.SizeOf[T]()
	for name, m := range corpus[T]() {
		p := mat.PatternOf(m)
		runs, dpInst := vbl.New(m, blocks.Scalar), vbl.NewDP(m, blocks.Scalar)
		if valSize == 8 {
			// The DP never merges at 8-byte values, so it is skipped: the
			// price and the arrays must be run detection's.
			if dp, want := partition.VBLStats(p, 8, true), partition.VBLStats(p, 8, false); dp != want {
				t.Errorf("%s: DP priced %+v, runs %+v", name, dp, want)
			}
			if err := sameArrays(dpInst, runs, "dp"); err != nil {
				t.Errorf("%s: NewDP and New differ: %v", name, err)
			}
		}
		for _, dp := range []bool{false, true} {
			inst := runs
			if dp {
				inst = dpInst
			}
			st := partition.VBLStats(p, valSize, dp)
			if st.Bytes != inst.MatrixBytes() {
				t.Errorf("%s dp=%v: priced %d bytes, built %d", name, dp, st.Bytes, inst.MatrixBytes())
			}
			if st.Stored != inst.StoredScalars() {
				t.Errorf("%s dp=%v: priced %d stored, built %d", name, dp, st.Stored, inst.StoredScalars())
			}
			if st.Blocks != inst.Blocks() {
				t.Errorf("%s dp=%v: priced %d blocks, built %d", name, dp, st.Blocks, inst.Blocks())
			}
		}
	}
}

// sameArrays reports how two built instances differ, comparing every
// field but skip; nil when they hold the same arrays.
func sameArrays(a, b any, skip string) error {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		f := va.Type().Field(i).Name
		if f == skip {
			continue
		}
		if x, y := fmt.Sprint(va.Field(i)), fmt.Sprint(vb.Field(i)); x != y {
			return fmt.Errorf("field %s: %s != %s", f, x, y)
		}
	}
	return nil
}

// TestDPNeverWorse is the satellite property test: the DP partition's
// priced stream bytes are never worse than the run-detection heuristic's,
// for VBR and VBL, at both element sizes, over the archetype corpus plus
// randomized matrices. The VBL DP prices exactly like the runs at 8-byte
// values and still merges the one-column gaps of "gaps" at 4-byte ones.
func TestDPNeverWorse(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testDPNeverWorse[float64](t) })
	t.Run("float32", func(t *testing.T) { testDPNeverWorse[float32](t) })
}

func testDPNeverWorse[T floats.Float](t *testing.T) {
	valSize := floats.SizeOf[T]()
	for name, m := range dpCorpus[T]() {
		p := mat.PatternOf(m)
		idBytes, err := partition.VBRStreamBytes(p, partition.Identity(p), valSize)
		if err != nil {
			t.Fatalf("%s: identity: %v", name, err)
		}
		dpBytes, err := partition.VBRStreamBytes(p, partition.AggregateVBR(p, valSize), valSize)
		if err != nil {
			t.Fatalf("%s: dp: %v", name, err)
		}
		if dpBytes > idBytes {
			t.Errorf("%s: VBR DP priced %d bytes > heuristic %d", name, dpBytes, idBytes)
		}
		runs := partition.VBLStats(p, valSize, false)
		dp := partition.VBLStats(p, valSize, true)
		if dp.Bytes > runs.Bytes {
			t.Errorf("%s: VBL DP priced %d bytes > runs %d", name, dp.Bytes, runs.Bytes)
		}
		if valSize == 8 && dp != runs {
			t.Errorf("%s: VBL DP priced %+v at 8-byte values, runs %+v", name, dp, runs)
		}
		if valSize == 4 && name == "gaps" && dp.Bytes >= runs.Bytes {
			t.Errorf("%s: VBL DP priced %d bytes at 4-byte values, runs %d: no gap merged", name, dp.Bytes, runs.Bytes)
		}
	}
}

// TestAggregateMatchesOracle checks the shared, pruned VBR pass against
// the unpruned oracle kept in oracle_test.go: the same aggregated
// partition, and Stats equal to VBRStats of the identity and the oracle
// partitions, at both value sizes.
func TestAggregateMatchesOracle(t *testing.T) {
	ms := dpCorpus[float64]()
	ms["shared60"] = SharedSparsity[float64](60, 300, 6, 8, 0.04, 7)
	ms["powerlaw2000"] = suite.PowerLaw[float64](2000, 8, 1.8, 1)
	for name, m := range ms {
		p := mat.PatternOf(m)
		for _, valSize := range []int{4, 8} {
			partition.CheckAgainstOracle(t, name, p, valSize)
		}
	}
}

// TestDPImprovesSharedSparsity pins the headline behavior: on a matrix of
// near-identical row groups the DP partition must strictly beat run
// detection (which fragments into single-row block rows).
func TestDPImprovesSharedSparsity(t *testing.T) {
	m := SharedSparsity[float64](60, 300, 6, 8, 0.04, 7)
	p := mat.PatternOf(m)
	idBytes, _ := partition.VBRStreamBytes(p, partition.Identity(p), 8)
	dpBytes, _ := partition.VBRStreamBytes(p, partition.AggregateVBR(p, 8), 8)
	if dpBytes >= idBytes {
		t.Fatalf("DP priced %d bytes, heuristic %d: expected strict improvement", dpBytes, idBytes)
	}
}

// TestDPMulMatchesHeuristic checks the DP-built formats compute the same
// product as their run-detection counterparts on every corpus matrix.
func TestDPMulMatchesHeuristic(t *testing.T) {
	for name, m := range corpus[float64]() {
		x := floats.RandVector[float64](m.Cols(), 3)
		want := make([]float64, m.Rows())
		vbr.New(m, blocks.Scalar).Mul(x, want)
		for _, inst := range []interface {
			Mul(x, y []float64)
		}{vbr.NewDP(m, blocks.Scalar), vbl.NewDP(m, blocks.Scalar)} {
			got := make([]float64, m.Rows())
			inst.Mul(x, got)
			for i := range got {
				if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("%s: product mismatch at row %d: %g vs %g", name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestVBLMaxSpanMatchesFormat pins the format's block-size limit to the
// one the partition prices with.
func TestVBLMaxSpanMatchesFormat(t *testing.T) {
	if partition.VBLMaxSpan != vbl.MaxBlockLen {
		t.Fatalf("partition.VBLMaxSpan = %d, vbl.MaxBlockLen = %d", partition.VBLMaxSpan, vbl.MaxBlockLen)
	}
}

// TestNewPartitionedArbitrary drives NewPartitioned with a deliberately
// poor but valid partition and checks pricing still matches construction.
func TestNewPartitionedArbitrary(t *testing.T) {
	m := testmat.Random[float64](20, 30, 0.1, 9)
	p := mat.PatternOf(m)
	pt := partition.VBRPartition{
		Rpntr: []int32{0, 7, 7, 20},
		Cpntr: []int32{0, 1, 16, 30},
	}
	inst, err := vbr.NewPartitioned(m, pt, blocks.Scalar)
	if err != nil {
		t.Fatal(err)
	}
	st, err := partition.VBRStats(p, pt, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != inst.MatrixBytes() || st.Stored != inst.StoredScalars() || st.Blocks != inst.Blocks() {
		t.Fatalf("pricing (%d bytes, %d stored, %d blocks) != construction (%d, %d, %d)",
			st.Bytes, st.Stored, st.Blocks, inst.MatrixBytes(), inst.StoredScalars(), inst.Blocks())
	}
	if _, err := vbr.NewPartitioned(m, partition.VBRPartition{Rpntr: []int32{0, 5}, Cpntr: []int32{0, 30}}, blocks.Scalar); err == nil {
		t.Fatal("NewPartitioned accepted a partition not covering the rows")
	}
	x := floats.RandVector[float64](m.Cols(), 4)
	want := make([]float64, m.Rows())
	got := make([]float64, m.Rows())
	vbr.New(m, blocks.Scalar).Mul(x, want)
	inst.Mul(x, got)
	for i := range got {
		if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("arbitrary partition product mismatch at row %d", i)
		}
	}
}
