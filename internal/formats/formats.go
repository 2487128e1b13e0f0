// Package formats defines the common interface every sparse storage format
// in this library implements, plus the component descriptors the
// performance models consume.
//
// A format instance is an immutable, multiply-ready representation of one
// matrix. Decomposed formats (BCSR-DEC, BCSD-DEC) expose one component per
// submatrix of the decomposition, matching the per-component sums of
// equations (2) and (3) in the paper.
package formats

import (
	"fmt"

	"blockspmv/internal/blocks"
	"blockspmv/internal/floats"
)

// Component describes one submatrix of a format instance for the
// performance models: its block shape and implementation class, the number
// of blocks nb_i, and the bytes of matrix data ws_i streamed from memory.
type Component struct {
	Shape   blocks.Shape
	Impl    blocks.Impl
	Blocks  int64
	WSBytes int64
	// Variant marks components whose kernel family differs from the
	// plain explicit-index layout (e.g. the CSR-DU delta decoder), so
	// model predictions can use the matching profiled block time.
	Variant blocks.Variant
}

// Instance is a multiply-ready sparse matrix in some storage format.
//
// Mul computes y = A*x, overwriting y. MulRange accumulates the product of
// the row range [r0, r1) into y, assuming the caller has zeroed that range;
// r0 and r1 must be multiples of RowAlign() or equal to Rows(). The
// multithreaded executor in internal/parallel builds on MulRange.
//
// Concurrency contract: MulRange must be safe for concurrent calls on
// disjoint aligned row ranges — implementations read only immutable
// matrix state and the shared x, and write y exclusively inside their
// range. The persistent worker pool relies on this: each pinned worker
// zero-fills and accumulates its own y slice (first-touch ownership)
// while the others do the same on theirs, every multiply, with no
// cross-range synchronisation.
type Instance[T floats.Float] interface {
	// Name identifies the format and configuration, e.g. "BCSR(2x3)" or
	// "BCSD-DEC(d4)/simd".
	Name() string

	Rows() int
	Cols() int

	// NNZ is the number of original nonzero elements.
	NNZ() int64

	// StoredScalars is the number of value-array entries including any
	// zero padding. The multithreaded load balancer weights rows by stored
	// scalars, "account[ing] for the extra zero elements used for the
	// padding" (Section V).
	StoredScalars() int64

	// MatrixBytes is the total size of the matrix data structures: value
	// arrays, index arrays and pointers, excluding the x and y vectors.
	MatrixBytes() int64

	// Components lists the decomposition components for the performance
	// models; non-decomposed formats return a single component.
	Components() []Component

	// Mul computes y = A*x. It panics on dimension mismatch.
	Mul(x, y []T)

	// RowAlign is the row granularity of MulRange: range boundaries must
	// be multiples of it (the block height r for BCSR, the segment size b
	// for BCSD, 1 for CSR and 1D-VBL).
	RowAlign() int

	// RowWeights returns per-row stored-scalar counts (including padding),
	// the weights the balanced partitioner splits on.
	RowWeights() []int64

	// MulRange accumulates A[r0:r1) * x into y[r0:r1), which the caller
	// must have zeroed. Boundaries must be RowAlign()-aligned (or Rows()).
	MulRange(x, y []T, r0, r1 int)

	// MulRangeMulti is the multi-RHS form of MulRange: x is a row-major
	// panel of k right-hand sides (x[j*k+l] is element j of RHS l,
	// len(x) = Cols()*k) and y the matching output panel (y[i*k+l],
	// len(y) = Rows()*k); the caller must have zeroed y[r0*k:r1*k).
	// The matrix stream is walked once per block row for all k columns,
	// amortizing the dominant memory traffic, while per panel column the
	// floating-point accumulation order is exactly that of MulRange —
	// MulRangeMulti over a k-wide panel is bit-identical to k MulRange
	// calls. k = 0 is a no-op; alignment and concurrency contracts match
	// MulRange.
	MulRangeMulti(x, y []T, k, r0, r1 int)

	// WithImpl returns an instance over the same storage using the given
	// kernel implementation class; the receiver is unchanged and the
	// underlying arrays are shared. Formats without distinct
	// implementations (VBR, 1D-VBL, DCSR) return an equivalent instance. The
	// experiment harness uses this to time scalar and simd kernels
	// without converting the matrix twice.
	WithImpl(impl blocks.Impl) Instance[T]
}

// VectorBytes returns the bytes of the input and output vectors for an
// n x m matrix with valSize-byte elements. The models add this to
// MatrixBytes to form the full streaming working set ws.
func VectorBytes(rows, cols, valSize int) int64 {
	return int64(rows+cols) * int64(valSize)
}

// WorkingSetBytes is the full streaming working set of an instance:
// matrix structures plus both vectors.
func WorkingSetBytes[T floats.Float](inst Instance[T]) int64 {
	return inst.MatrixBytes() + VectorBytes(inst.Rows(), inst.Cols(), floats.SizeOf[T]())
}

// DimError is the typed form of a Mul dimension mismatch: the operand
// lengths do not match the matrix shape.
type DimError struct {
	Format     string // the instance's Name()
	Rows, Cols int
	LenX, LenY int
}

// Error implements error.
func (e *DimError) Error() string {
	return fmt.Sprintf("formats: Mul dimension mismatch: %s is %dx%d, x has %d, y has %d",
		e.Format, e.Rows, e.Cols, e.LenX, e.LenY)
}

// CheckDims panics with a *DimError on Mul dimension mismatches; the
// panicking Mul entry points use it directly.
func CheckDims[T floats.Float](inst Instance[T], x, y []T) {
	if err := CheckDimsErr(inst, x, y); err != nil {
		panic(err)
	}
}

// CheckDimsErr returns a typed *DimError when the operand lengths do not
// match the instance shape, nil otherwise. The error-returning multiply
// paths (parallel.Mul.MulVec, the checked public API) use it so shape
// mistakes surface as errors instead of panics.
func CheckDimsErr[T floats.Float](inst Instance[T], x, y []T) error {
	if len(x) != inst.Cols() || len(y) != inst.Rows() {
		return &DimError{Format: inst.Name(), Rows: inst.Rows(), Cols: inst.Cols(), LenX: len(x), LenY: len(y)}
	}
	return nil
}

// PanelError reports a multi-RHS operand set whose vector counts do not
// match: MulVecs needs exactly one output vector per right-hand side.
type PanelError struct {
	Format string // the instance's Name()
	NX, NY int    // number of input and output vectors
}

// Error implements error.
func (e *PanelError) Error() string {
	return fmt.Sprintf("formats: MulVecs panel mismatch: %s got %d right-hand sides but %d outputs",
		e.Format, e.NX, e.NY)
}

// CheckPanelDimsErr validates a multi-RHS operand set: as many outputs
// as inputs (else a *PanelError), and every x[l]/y[l] pair shaped like
// a MulVec operand pair (else the first offending *DimError).
func CheckPanelDimsErr[T floats.Float](inst Instance[T], x, y [][]T) error {
	if len(x) != len(y) {
		return &PanelError{Format: inst.Name(), NX: len(x), NY: len(y)}
	}
	for l := range x {
		if err := CheckDimsErr(inst, x[l], y[l]); err != nil {
			return err
		}
	}
	return nil
}

// PackPanel interleaves k equal-length vectors into the row-major panel
// layout MulRangeMulti consumes: dst[j*k+l] = vecs[l][j]. dst must have
// len(vecs[0])*len(vecs) elements.
func PackPanel[T floats.Float](dst []T, vecs [][]T) {
	k := len(vecs)
	for l, v := range vecs {
		for j, e := range v {
			dst[j*k+l] = e
		}
	}
}

// UnpackPanel is the inverse of PackPanel: vecs[l][i] = src[i*k+l],
// overwriting each destination vector.
func UnpackPanel[T floats.Float](vecs [][]T, src []T) {
	k := len(vecs)
	for l, v := range vecs {
		for i := range v {
			v[i] = src[i*k+l]
		}
	}
}

// MulVecs computes y[l] = A*x[l] for every vector of a multi-RHS
// operand set in one pass over the matrix, overwriting the outputs. It
// packs the vectors into row-major panels, runs MulRangeMulti over the
// full row range, and unpacks the result; each y[l] is bit-identical to
// a Mul call on x[l]. It panics on operand shape mismatches (the typed
// *PanelError / *DimError); the checked public API and parallel
// executor validate first and return errors instead. k = 0 is a no-op.
func MulVecs[T floats.Float](inst Instance[T], x, y [][]T) {
	if err := CheckPanelDimsErr(inst, x, y); err != nil {
		panic(err)
	}
	k := len(x)
	if k == 0 {
		return
	}
	xp := make([]T, inst.Cols()*k)
	yp := make([]T, inst.Rows()*k) // zeroed by make, as MulRangeMulti requires
	PackPanel(xp, x)
	inst.MulRangeMulti(xp, yp, k, 0, inst.Rows())
	UnpackPanel(y, yp)
}
