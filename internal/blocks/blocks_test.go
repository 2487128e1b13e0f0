package blocks

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"blockspmv/internal/mat"
	"blockspmv/internal/testmat"
)

func TestShapeEnumeration(t *testing.T) {
	rect := RectShapes()
	// 1x2..1x8 (7) + 2x1..2x4 (4) + 3x1,3x2 (2) + 4x1,4x2 (2) + 5..8x1 (4).
	if len(rect) != 19 {
		t.Errorf("RectShapes returned %d shapes, want 19", len(rect))
	}
	for _, s := range rect {
		if !s.Valid() || s.IsUnit() {
			t.Errorf("bad rect shape %v", s)
		}
		if s.Elems() > MaxBlockElems {
			t.Errorf("shape %v has %d elements", s, s.Elems())
		}
	}
	diag := DiagShapes()
	if len(diag) != 7 {
		t.Errorf("DiagShapes returned %d shapes, want 7", len(diag))
	}
	all := AllShapes()
	if len(all) != 1+19+7 {
		t.Errorf("AllShapes returned %d shapes, want 27", len(all))
	}
	if !all[0].IsUnit() {
		t.Errorf("AllShapes[0] = %v, want 1x1", all[0])
	}
}

func TestShapeStrings(t *testing.T) {
	if got := RectShape(2, 4).String(); got != "2x4" {
		t.Errorf("String = %q", got)
	}
	if got := DiagShape(3).String(); got != "d3" {
		t.Errorf("String = %q", got)
	}
	if got := Scalar.String(); got != "scalar" {
		t.Errorf("String = %q", got)
	}
	if got := Vector.String(); got != "simd" {
		t.Errorf("String = %q", got)
	}
}

func TestShapeValidity(t *testing.T) {
	if RectShape(3, 3).Valid() {
		t.Error("3x3 (9 elements) reported valid")
	}
	if DiagShape(1).Valid() {
		t.Error("d1 reported valid")
	}
	if DiagShape(9).Valid() {
		t.Error("d9 reported valid")
	}
	if !RectShape(8, 1).Valid() || !DiagShape(8).Valid() {
		t.Error("valid shapes reported invalid")
	}
}

func patternFrom(rows, cols int, coords [][2]int32) *mat.Pattern {
	m := mat.New[float64](rows, cols)
	for _, rc := range coords {
		m.Add(rc[0], rc[1], 1)
	}
	m.Finalize()
	return mat.PatternOf(m)
}

func TestCountRectKnown(t *testing.T) {
	// 4x4 with one full aligned 2x2 tile and one lone entry.
	p := patternFrom(4, 4, [][2]int32{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {3, 3}})
	cnt := CountRect(p, 2, 2)
	if cnt.Blocks != 2 {
		t.Errorf("Blocks = %d, want 2", cnt.Blocks)
	}
	if cnt.Padding != 3 {
		t.Errorf("Padding = %d, want 3", cnt.Padding)
	}
	if cnt.FullBlocks != 1 {
		t.Errorf("FullBlocks = %d, want 1", cnt.FullBlocks)
	}
	if cnt.RemainderNNZ != 1 {
		t.Errorf("RemainderNNZ = %d, want 1", cnt.RemainderNNZ)
	}
}

func TestCountRectUnalignedTile(t *testing.T) {
	// A dense 2x2 tile at (1,1) crosses four aligned 2x2 positions.
	p := patternFrom(4, 4, [][2]int32{{1, 1}, {1, 2}, {2, 1}, {2, 2}})
	cnt := CountRect(p, 2, 2)
	if cnt.Blocks != 4 || cnt.FullBlocks != 0 {
		t.Errorf("Blocks = %d FullBlocks = %d, want 4 and 0", cnt.Blocks, cnt.FullBlocks)
	}
}

func TestCountRectBottomEdgeNeverFull(t *testing.T) {
	// 3 rows, 2x2 blocks: the bottom block row has height 1, so even a
	// "dense" pair there cannot be a full block.
	p := patternFrom(3, 4, [][2]int32{{2, 0}, {2, 1}})
	cnt := CountRect(p, 2, 2)
	if cnt.FullBlocks != 0 {
		t.Errorf("bottom-edge block counted full")
	}
	if cnt.Blocks != 1 || cnt.Padding != 2 {
		t.Errorf("Blocks = %d Padding = %d, want 1 and 2", cnt.Blocks, cnt.Padding)
	}
}

func TestCountDiagKnown(t *testing.T) {
	// Full main diagonal of 6, b=3: two full aligned diagonal blocks.
	coords := make([][2]int32, 6)
	for i := range coords {
		coords[i] = [2]int32{int32(i), int32(i)}
	}
	p := patternFrom(6, 6, coords)
	cnt := CountDiag(p, 3)
	if cnt.Blocks != 2 || cnt.FullBlocks != 2 || cnt.Padding != 0 {
		t.Errorf("count = %+v, want 2 blocks, 2 full, 0 padding", cnt)
	}
}

func TestCountDiagNegativeStart(t *testing.T) {
	// Entry (1,0) with b=2 lies on the diagonal starting at column -1:
	// a boundary block that cannot be full.
	p := patternFrom(2, 2, [][2]int32{{1, 0}})
	cnt := CountDiag(p, 2)
	if cnt.Blocks != 1 || cnt.FullBlocks != 0 || cnt.Padding != 1 {
		t.Errorf("count = %+v, want 1 block, 0 full, 1 padding", cnt)
	}
}

func TestCountVBL(t *testing.T) {
	p := patternFrom(2, 10, [][2]int32{
		{0, 0}, {0, 1}, {0, 2}, // run of 3
		{0, 5},         // run of 1
		{1, 3}, {1, 4}, // run of 2
	})
	if got := CountVBL(p, 255); got != 3 {
		t.Errorf("CountVBL = %d, want 3", got)
	}
	// With maxLen 2 the run of 3 splits into 2 blocks.
	if got := CountVBL(p, 2); got != 4 {
		t.Errorf("CountVBL(maxLen=2) = %d, want 4", got)
	}
}

// TestCountInvariants property-checks the accounting identities on random
// patterns: padding is non-negative, full blocks plus remainder recover
// nnz, and block counts are bounded by nnz.
func TestCountInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		m := mat.New[float64](rows, cols)
		n := rng.Intn(200)
		for k := 0; k < n; k++ {
			m.Add(int32(rng.Intn(rows)), int32(rng.Intn(cols)), 1)
		}
		m.Finalize()
		p := mat.PatternOf(m)
		nnz := int64(p.NNZ())
		for _, s := range AllShapes() {
			if s.IsUnit() {
				continue
			}
			cnt := CountForShape(p, s)
			if cnt.Padding < 0 || cnt.Blocks < 0 || cnt.FullBlocks < 0 {
				return false
			}
			if cnt.Blocks*int64(s.Elems())-nnz != cnt.Padding {
				return false
			}
			if cnt.FullBlocks*int64(s.Elems())+cnt.RemainderNNZ != nnz {
				return false
			}
			if cnt.Blocks > nnz || cnt.FullBlocks > cnt.Blocks {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// sortCountRect is the sort-based counter the stamp pass replaced, kept as
// the oracle: it collects each block row's block columns, sorts them and
// measures the runs of equal keys.
func sortCountRect(p *mat.Pattern, r, c int) Count {
	cnt := Count{Shape: RectShape(r, c)}
	elems := int64(r * c)
	var buf []int32
	for br := 0; br*r < p.Rows; br++ {
		rowEnd := min((br+1)*r, p.Rows)
		fullRows := rowEnd-br*r == r // bottom-edge block rows can't be full
		buf = buf[:0]
		for row := br * r; row < rowEnd; row++ {
			for _, col := range p.RowCols(row) {
				buf = append(buf, col/int32(c))
			}
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		for i := 0; i < len(buf); {
			j := i + 1
			for j < len(buf) && buf[j] == buf[i] {
				j++
			}
			cnt.Blocks++
			// A full block needs all r*c positions inside the matrix.
			if fullRows && int64(j-i) == elems && int(buf[i]+1)*c <= p.Cols {
				cnt.FullBlocks++
			}
			i = j
		}
	}
	cnt.Padding = cnt.Blocks*elems - int64(p.NNZ())
	cnt.RemainderNNZ = int64(p.NNZ()) - cnt.FullBlocks*elems
	return cnt
}

// sortCountDiag is the sort-based oracle for diagonal blocks.
func sortCountDiag(p *mat.Pattern, b int) Count {
	cnt := Count{Shape: DiagShape(b)}
	var buf []int32
	for seg := 0; seg*b < p.Rows; seg++ {
		rowEnd := min((seg+1)*b, p.Rows)
		fullRows := rowEnd-seg*b == b
		buf = buf[:0]
		for row := seg * b; row < rowEnd; row++ {
			off := int32(row - seg*b)
			for _, col := range p.RowCols(row) {
				buf = append(buf, col-off) // may be negative: boundary block
			}
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		for i := 0; i < len(buf); {
			j := i + 1
			for j < len(buf) && buf[j] == buf[i] {
				j++
			}
			cnt.Blocks++
			start := buf[i]
			if fullRows && j-i == b && start >= 0 && int(start)+b <= p.Cols {
				cnt.FullBlocks++
			}
			i = j
		}
	}
	cnt.Padding = cnt.Blocks*int64(b) - int64(p.NNZ())
	cnt.RemainderNNZ = int64(p.NNZ()) - cnt.FullBlocks*int64(b)
	return cnt
}

func sortCount(p *mat.Pattern, s Shape) Count {
	if s.Kind == Diag {
		return sortCountDiag(p, s.R)
	}
	return sortCountRect(p, s.R, s.C)
}

// checkAgainstOracle counts every shape with one shared Counter, as an
// enumeration does, and requires each Count to equal the oracle's.
func checkAgainstOracle(t *testing.T, name string, p *mat.Pattern) {
	t.Helper()
	k := NewCounter(p)
	for _, s := range AllShapes() {
		if got, want := k.Count(s), sortCount(p, s); got != want {
			t.Fatalf("%s %v: counted %+v, oracle %+v", name, s, got, want)
		}
	}
}

// TestDivisor checks the multiply-shift division of rect against integer
// division for every block width, on the smallest and largest column
// indices, where the error of the multiplier is smallest and largest.
func TestDivisor(t *testing.T) {
	const edge = 1 << 16
	for c := 1; c <= MaxBlockElems; c++ {
		m, shift := divisor(c)
		for _, lo := range []int64{0, 1<<31 - edge} {
			for col := lo; col < lo+edge; col++ {
				if got := uint64(col) * m >> shift; got != uint64(col)/uint64(c) {
					t.Fatalf("c=%d: col %d maps to block column %d, want %d", c, col, got, col/int64(c))
				}
			}
		}
	}
}

func TestCountMatchesOracle(t *testing.T) {
	for name, m := range testmat.Corpus[float64]() {
		checkAgainstOracle(t, name, mat.PatternOf(m))
	}
}

// fuzzPattern decodes a pattern of at most 64x64 from fuzz bytes: the
// dimensions from the first two bytes, then one bit per cell, row-major.
func fuzzPattern(data []byte) *mat.Pattern {
	rows, cols := 1, 1
	if len(data) >= 2 {
		rows, cols = int(data[0]%64)+1, int(data[1]%64)+1
		data = data[2:]
	}
	p := &mat.Pattern{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if bit := r*cols + c; bit/8 < len(data) && data[bit/8]&(1<<(bit%8)) != 0 {
				p.ColInd = append(p.ColInd, int32(c))
			}
		}
		p.RowPtr[r+1] = int32(len(p.ColInd))
	}
	return p
}

// fuzzSeed encodes a rows x cols pattern holding the given cells in the
// form fuzzPattern decodes.
func fuzzSeed(rows, cols int, cells func(r, c int) bool) []byte {
	data := make([]byte, 2+(rows*cols+7)/8)
	data[0], data[1] = byte(rows-1), byte(cols-1)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if bit := r*cols + c; cells(r, c) {
				data[2+bit/8] |= 1 << (bit % 8)
			}
		}
	}
	return data
}

// FuzzCount checks the stamp-based counter against the sort-based oracle
// on every shape, 1x1 included.
func FuzzCount(f *testing.F) {
	f.Add(fuzzSeed(13, 17, func(r, c int) bool { return false }))        // empty
	f.Add(fuzzSeed(1, 64, func(r, c int) bool { return c%5 != 3 }))      // one row
	f.Add(fuzzSeed(15, 16, func(r, c int) bool { return r >= 12 }))      // bottom-edge blocks
	f.Add(fuzzSeed(16, 21, func(r, c int) bool { return c >= 16 }))      // right-edge blocks
	f.Add(fuzzSeed(24, 24, func(r, c int) bool { return r == c }))       // full diagonal
	f.Add(fuzzSeed(64, 64, func(r, c int) bool { return (r^c)%3 == 0 })) // largest
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, "fuzz", fuzzPattern(data))
	})
}
