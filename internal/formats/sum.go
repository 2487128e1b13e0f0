package formats

import (
	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
)

// Sum is a decomposed instance: the matrix split into parts whose
// products add up to the whole (Section II.B). The parts multiply in
// order into the same output range, so every row continues the
// accumulation the previous part left there, and the component list is
// the parts' lists concatenated in that order: the k-term sums of
// equations (2) and (3). BCSR-DEC and BCSD-DEC are two-part sums (the
// completely dense blocks, then a CSR remainder); MULTI-DEC is a
// three-part one (dense rectangles, dense diagonals, CSR remainder).
type Sum[T floats.Float] struct {
	name  string // without the implementation suffix
	impl  blocks.Impl
	align int
	parts []Instance[T]
}

// NewSum returns the sum of one or more parts of one shape. name
// identifies the decomposition including any index-width suffix; Name
// appends "/simd" when impl is blocks.Vector. align is the RowAlign every
// part's row ranges respect.
func NewSum[T floats.Float](name string, impl blocks.Impl, align int, parts ...Instance[T]) *Sum[T] {
	return &Sum[T]{name: name, impl: impl, align: align, parts: parts}
}

// Parts returns the parts in multiplication order. The slice is the
// instance's own and must not be modified.
func (s *Sum[T]) Parts() []Instance[T] { return s.parts }

// Name implements Instance.
func (s *Sum[T]) Name() string {
	if s.impl == blocks.Vector {
		return s.name + "/simd"
	}
	return s.name
}

// Rows implements Instance.
func (s *Sum[T]) Rows() int { return s.parts[0].Rows() }

// Cols implements Instance.
func (s *Sum[T]) Cols() int { return s.parts[0].Cols() }

// NNZ implements Instance.
func (s *Sum[T]) NNZ() int64 { return s.total(Instance[T].NNZ) }

// StoredScalars implements Instance.
func (s *Sum[T]) StoredScalars() int64 { return s.total(Instance[T].StoredScalars) }

// MatrixBytes implements Instance.
func (s *Sum[T]) MatrixBytes() int64 { return s.total(Instance[T].MatrixBytes) }

func (s *Sum[T]) total(f func(Instance[T]) int64) int64 {
	var n int64
	for _, p := range s.parts {
		n += f(p)
	}
	return n
}

// Components implements Instance: every part's components, in
// multiplication order.
func (s *Sum[T]) Components() []Component {
	var comps []Component
	for _, p := range s.parts {
		comps = append(comps, p.Components()...)
	}
	return comps
}

// RowAlign implements Instance.
func (s *Sum[T]) RowAlign() int { return s.align }

// RowWeights implements Instance.
func (s *Sum[T]) RowWeights() []int64 {
	w := s.parts[0].RowWeights()
	for _, p := range s.parts[1:] {
		for r, pw := range p.RowWeights() {
			w[r] += pw
		}
	}
	return w
}

// Mul implements Instance.
func (s *Sum[T]) Mul(x, y []T) {
	CheckDims[T](s, x, y)
	floats.Fill(y, 0)
	s.MulRange(x, y, 0, s.Rows())
}

// MulRange implements Instance: the parts accumulate into y[r0:r1) one
// after another.
func (s *Sum[T]) MulRange(x, y []T, r0, r1 int) {
	for _, p := range s.parts {
		p.MulRange(x, y, r0, r1)
	}
}

// MulRangeMulti implements Instance: the parts accumulate into the panel
// in the MulRange order, and each part's panel kernel keeps every column
// bit-identical to its MulRange, so every column of the sum is too.
func (s *Sum[T]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	for _, p := range s.parts {
		p.MulRangeMulti(x, y, k, r0, r1)
	}
}

// WithImpl implements Instance: every part switches to impl.
func (s *Sum[T]) WithImpl(impl blocks.Impl) Instance[T] {
	parts := make([]Instance[T], len(s.parts))
	for i, p := range s.parts {
		parts[i] = p.WithImpl(impl)
	}
	return NewSum(s.name, impl, s.align, parts...)
}

var _ Instance[float64] = (*Sum[float64])(nil)
