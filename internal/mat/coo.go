// Package mat provides the coordinate (COO/triplet) representation that
// every storage format in this library is constructed from, together with
// structure statistics and Matrix Market I/O.
//
// COO is deliberately simple: it is the ground truth a sparse matrix is
// assembled into, the reference SpMV oracle the tests compare against, and
// the common input of every format conversion. None of the performance
// experiments time COO itself.
package mat

import (
	"fmt"
	"sort"

	"blockspmv/internal/floats"
)

// Entry is a single nonzero element in coordinate form. Indices are int32
// to match the 4-byte index structures the paper uses in every format.
type Entry[T floats.Float] struct {
	Row, Col int32
	Val      T
}

// COO is a sparse matrix in coordinate (triplet) form.
//
// The zero value is an empty 0x0 matrix; use New to create one with a
// shape, then Add entries and Finalize before handing it to a converter.
type COO[T floats.Float] struct {
	rows, cols int
	entries    []Entry[T]
	finalized  bool
}

// New returns an empty rows x cols matrix in coordinate form.
// It panics if either dimension is negative or exceeds the int32 index
// range the storage formats use.
func New[T floats.Float](rows, cols int) *COO[T] {
	const maxDim = 1 << 31
	if rows < 0 || cols < 0 || rows >= maxDim || cols >= maxDim {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &COO[T]{rows: rows, cols: cols}
}

// FromEntries builds a finalized COO matrix directly from a prepared entry
// slice. The slice is taken over by the matrix. Out-of-range entries cause
// a panic; duplicates are summed.
func FromEntries[T floats.Float](rows, cols int, entries []Entry[T]) *COO[T] {
	m := New[T](rows, cols)
	m.entries = entries
	for _, e := range entries {
		m.check(e.Row, e.Col)
	}
	m.Finalize()
	return m
}

// Rows returns the number of rows.
func (m *COO[T]) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *COO[T]) Cols() int { return m.cols }

// NNZ returns the number of stored entries. After Finalize this is the
// number of distinct nonzero coordinates (explicit zeros are dropped).
func (m *COO[T]) NNZ() int { return len(m.entries) }

func (m *COO[T]) check(r, c int32) {
	if r < 0 || int(r) >= m.rows || c < 0 || int(c) >= m.cols {
		panic(fmt.Sprintf("mat: entry (%d,%d) outside %dx%d matrix", r, c, m.rows, m.cols))
	}
}

// Add appends the value v at (r, c). Duplicate coordinates are summed by
// Finalize. Adding to a finalized matrix un-finalizes it.
func (m *COO[T]) Add(r, c int32, v T) {
	m.check(r, c)
	m.entries = append(m.entries, Entry[T]{Row: r, Col: c, Val: v})
	m.finalized = false
}

// Finalize sorts the entries row-major, sums duplicates and drops explicit
// zeros. Every format converter requires a finalized matrix. Finalize is
// idempotent.
func (m *COO[T]) Finalize() {
	if m.finalized {
		return
	}
	es := m.entries
	sort.Slice(es, func(i, j int) bool {
		if es[i].Row != es[j].Row {
			return es[i].Row < es[j].Row
		}
		return es[i].Col < es[j].Col
	})
	out := es[:0]
	for i := 0; i < len(es); {
		j := i + 1
		acc := es[i].Val
		for j < len(es) && es[j].Row == es[i].Row && es[j].Col == es[i].Col {
			acc += es[j].Val
			j++
		}
		if acc != 0 {
			out = append(out, Entry[T]{Row: es[i].Row, Col: es[i].Col, Val: acc})
		}
		i = j
	}
	m.entries = out
	m.finalized = true
}

// Finalized reports whether the matrix has been finalized since the last
// mutation.
func (m *COO[T]) Finalized() bool { return m.finalized }

// Entries returns the backing entry slice. After Finalize it is row-major
// sorted and duplicate-free. The caller must not mutate it while the matrix
// is in use by converters.
func (m *COO[T]) Entries() []Entry[T] { return m.entries }

// Clone returns a deep copy of the matrix.
func (m *COO[T]) Clone() *COO[T] {
	c := New[T](m.rows, m.cols)
	c.entries = append([]Entry[T](nil), m.entries...)
	c.finalized = m.finalized
	return c
}

// MulVec computes y = A*x using the coordinate entries directly. It is the
// reference oracle every storage format is validated against. It panics on
// dimension mismatches.
func (m *COO[T]) MulVec(x, y []T) {
	if len(x) != m.cols || len(y) != m.rows {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch: A is %dx%d, x has %d, y has %d",
			m.rows, m.cols, len(x), len(y)))
	}
	floats.Fill(y, 0)
	for _, e := range m.entries {
		y[e.Row] += e.Val * x[e.Col]
	}
}

// RowLengths returns the number of stored entries in each row. The matrix
// must be finalized.
func (m *COO[T]) RowLengths() []int {
	m.mustFinal()
	lens := make([]int, m.rows)
	for _, e := range m.entries {
		lens[e.Row]++
	}
	return lens
}

func (m *COO[T]) mustFinal() {
	if !m.finalized {
		panic("mat: matrix must be finalized first")
	}
}

// Transpose returns the finalized transpose of the matrix.
func (m *COO[T]) Transpose() *COO[T] {
	t := New[T](m.cols, m.rows)
	for _, e := range m.entries {
		t.Add(e.Col, e.Row, e.Val)
	}
	t.Finalize()
	return t
}

// ToDense returns the matrix as a dense row-major rows*cols slice. Intended
// for tests on small matrices only.
func (m *COO[T]) ToDense() []T {
	d := make([]T, m.rows*m.cols)
	for _, e := range m.entries {
		d[int(e.Row)*m.cols+int(e.Col)] += e.Val
	}
	return d
}

// FromDense builds a finalized COO matrix from a dense row-major slice,
// storing only the nonzero elements.
func FromDense[T floats.Float](rows, cols int, d []T) *COO[T] {
	if len(d) != rows*cols {
		panic("mat: FromDense size mismatch")
	}
	m := New[T](rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if v := d[r*cols+c]; v != 0 {
				m.Add(int32(r), int32(c), v)
			}
		}
	}
	m.Finalize()
	return m
}

// Dense returns a finalized fully dense rows x cols matrix whose entries are
// a deterministic function of their coordinates. It is the profiling
// workload of the performance models (Section IV): a dense matrix stored in
// a blocked format produces exactly one full block per block position and no
// padding.
func Dense[T floats.Float](rows, cols int) *COO[T] {
	m := New[T](rows, cols)
	m.entries = make([]Entry[T], 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			// Small, nonzero, sign-alternating values keep accumulations
			// well-conditioned in single precision.
			v := T(1 + (r+2*c)%7)
			if (r+c)%2 == 1 {
				v = -v
			}
			m.entries = append(m.entries, Entry[T]{Row: int32(r), Col: int32(c), Val: v})
		}
	}
	m.finalized = true
	return m
}
