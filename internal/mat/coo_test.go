package mat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"blockspmv/internal/floats"
)

func TestFinalizeSortsAndDedupes(t *testing.T) {
	m := New[float64](4, 4)
	m.Add(2, 1, 5)
	m.Add(0, 3, 1)
	m.Add(2, 1, 3) // duplicate, summed to 8
	m.Add(1, 0, -2)
	m.Add(3, 3, 0) // explicit zero, dropped
	m.Finalize()

	want := []Entry[float64]{{0, 3, 1}, {1, 0, -2}, {2, 1, 8}}
	got := m.Entries()
	if len(got) != len(want) {
		t.Fatalf("finalized to %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFinalizeDropsCancellingDuplicates(t *testing.T) {
	m := New[float64](2, 2)
	m.Add(0, 0, 1.5)
	m.Add(0, 0, -1.5)
	m.Finalize()
	if m.NNZ() != 0 {
		t.Errorf("cancelling duplicates left %d entries", m.NNZ())
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	m := New[float64](3, 3)
	m.Add(1, 1, 2)
	m.Finalize()
	n1 := m.NNZ()
	m.Finalize()
	if m.NNZ() != n1 {
		t.Error("second Finalize changed the matrix")
	}
	m.Add(0, 0, 1)
	if m.Finalized() {
		t.Error("Add did not clear the finalized flag")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New[float64](2, 2)
	for _, e := range []struct{ r, c int32 }{{2, 0}, {0, 2}, {-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d,%d) did not panic", e.r, e.c)
				}
			}()
			m.Add(e.r, e.c, 1)
		}()
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows, cols := 17, 23
	m := New[float64](rows, cols)
	dense := make([]float64, rows*cols)
	for k := 0; k < 120; k++ {
		r, c := rng.Intn(rows), rng.Intn(cols)
		v := rng.Float64()*2 - 1
		m.Add(int32(r), int32(c), v)
		dense[r*cols+c] += v
	}
	m.Finalize()

	x := floats.RandVector[float64](cols, 1)
	y := make([]float64, rows)
	m.MulVec(x, y)
	for r := 0; r < rows; r++ {
		var want float64
		for c := 0; c < cols; c++ {
			want += dense[r*cols+c] * x[c]
		}
		if d := y[r] - want; d > 1e-12 || d < -1e-12 {
			t.Fatalf("row %d: %g, want %g", r, y[r], want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New[float64](11, 7)
		for k := 0; k < 30; k++ {
			m.Add(int32(rng.Intn(11)), int32(rng.Intn(7)), rng.Float64()+0.1)
		}
		m.Finalize()
		tt := m.Transpose().Transpose()
		if tt.Rows() != m.Rows() || tt.Cols() != m.Cols() || tt.NNZ() != m.NNZ() {
			return false
		}
		for i, e := range m.Entries() {
			if tt.Entries()[i] != e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	m := Dense[float64](9, 13)
	if m.NNZ() != 9*13 {
		t.Fatalf("Dense matrix has %d nonzeros, want %d", m.NNZ(), 9*13)
	}
	back := FromDense(9, 13, m.ToDense())
	if back.NNZ() != m.NNZ() {
		t.Fatalf("round trip has %d nonzeros, want %d", back.NNZ(), m.NNZ())
	}
	for i, e := range m.Entries() {
		if back.Entries()[i] != e {
			t.Fatalf("entry %d = %v, want %v", i, back.Entries()[i], e)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New[float64](3, 3)
	m.Add(0, 0, 1)
	m.Finalize()
	c := m.Clone()
	c.Add(1, 1, 2)
	c.Finalize()
	if m.NNZ() != 1 || c.NNZ() != 2 {
		t.Errorf("clone not independent: orig %d, clone %d", m.NNZ(), c.NNZ())
	}
}

func TestPatternOfAndValidate(t *testing.T) {
	m := New[float64](4, 6)
	m.Add(0, 1, 1)
	m.Add(0, 5, 2)
	m.Add(2, 0, 3)
	m.Finalize()
	p := PatternOf(m)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid pattern rejected: %v", err)
	}
	if p.NNZ() != 3 {
		t.Errorf("pattern NNZ = %d, want 3", p.NNZ())
	}
	if got := p.RowCols(0); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Errorf("RowCols(0) = %v", got)
	}
	if got := p.RowCols(1); len(got) != 0 {
		t.Errorf("RowCols(1) = %v, want empty", got)
	}

	// Corrupt the pattern and check Validate rejects it.
	p.ColInd[0] = 99
	if err := p.Validate(); err == nil {
		t.Error("out-of-range column accepted")
	}
	p.ColInd[0] = 1
	p.RowPtr[1] = 5
	if err := p.Validate(); err == nil {
		t.Error("bad row pointer accepted")
	}
}

func TestStats(t *testing.T) {
	// 4x4 with a full main diagonal and one horizontal pair.
	m := New[float64](4, 4)
	for i := 0; i < 4; i++ {
		m.Add(int32(i), int32(i), 1)
	}
	m.Add(0, 1, 1)
	m.Finalize()
	s := ComputeStats(m)
	if s.NNZ != 5 || s.MaxRowLen != 2 || s.MinRowLen != 1 {
		t.Errorf("stats = %+v", s)
	}
	// (0,1) has left neighbour (0,0): 1 of 5.
	if s.HorizontalRunFraction != 0.2 {
		t.Errorf("horizontal fraction = %g, want 0.2", s.HorizontalRunFraction)
	}
	// (1,1),(2,2),(3,3) have up-left neighbours: 3 of 5.
	if s.DiagonalRunFraction != 0.6 {
		t.Errorf("diagonal fraction = %g, want 0.6", s.DiagonalRunFraction)
	}
	if s.Bandwidth != 1 {
		t.Errorf("bandwidth = %d, want 1", s.Bandwidth)
	}
}

func TestRowLengthHistogram(t *testing.T) {
	m := New[float64](3, 20)
	for c := 0; c < 1; c++ {
		m.Add(0, int32(c), 1)
	}
	for c := 0; c < 5; c++ {
		m.Add(1, int32(c), 1)
	}
	for c := 0; c < 16; c++ {
		m.Add(2, int32(c), 1)
	}
	m.Finalize()
	bounds, counts := RowLengthHistogram(m)
	var total int
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Errorf("histogram covers %d rows, want 3", total)
	}
	if bounds[len(bounds)-1] < 16 {
		t.Errorf("histogram upper bound %d misses max row length 16", bounds[len(bounds)-1])
	}
}

func TestIrregularAccesses(t *testing.T) {
	m := New[float64](3, 1000)
	// Row 0: a dense run of 10 -> only the first access is irregular.
	for c := 0; c < 10; c++ {
		m.Add(0, int32(c), 1)
	}
	// Row 1: three far-apart entries -> all three irregular.
	m.Add(1, 0, 1)
	m.Add(1, 500, 1)
	m.Add(1, 999, 1)
	// Row 2: entries exactly at the gap boundary.
	m.Add(2, 0, 1)
	m.Add(2, 8, 1)  // delta 8 == gap: NOT irregular
	m.Add(2, 17, 1) // delta 9 > gap: irregular
	m.Finalize()
	p := PatternOf(m)
	if got := p.IrregularAccesses(8); got != 1+3+2 {
		t.Errorf("IrregularAccesses = %d, want 6", got)
	}
}
