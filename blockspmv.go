// Package blockspmv is a library of blocked sparse matrix-vector
// multiplication (SpMV) kernels and of performance models that select the
// best storage format and block shape for a given matrix, reproducing
//
//	V. Karakasis, G. Goumas, N. Koziris:
//	"Performance Models for Blocked Sparse Matrix-Vector Multiplication
//	Kernels", ICPP 2009.
//
// # Storage formats
//
// The library implements the paper's five blocked storage formats next to
// the CSR baseline: BCSR (aligned fixed-size r x c blocks with zero
// padding), BCSR-DEC (full blocks + CSR remainder), BCSD (aligned diagonal
// blocks with padding), BCSD-DEC, and 1D-VBL (variable-length horizontal
// blocks); VBR is included for completeness of the format survey. Every
// fixed block shape with at most eight elements has a dedicated unrolled
// kernel in a scalar and a lane-structured "simd" variant, in both single
// and double precision via generics.
//
// # Performance models
//
// Three models predict SpMV execution time and drive format selection: MEM
// (pure streaming, ws/BW), MEMCOMP (adds the profiled computational cost
// of each block) and OVERLAP (scales the computational part by a profiled
// non-overlapping factor that accounts for hardware prefetching). Use
// DetectMachine and CollectProfile once per host, then Autotune per
// matrix.
//
// # Quick start
//
//	m := blockspmv.NewMatrix[float64](rows, cols)
//	m.Add(i, j, v) // ... assemble
//	m.Finalize()
//
//	mach := blockspmv.DetectMachine()
//	prof := blockspmv.CollectProfile[float64](mach)
//	format, pred := blockspmv.Autotune(m, mach, prof)
//	format.Mul(x, y) // y = A*x with the selected format
//
// The experiment harness reproducing the paper's tables and figures lives
// in cmd/spmvbench; see DESIGN.md and EXPERIMENTS.md.
package blockspmv

import (
	"io"

	"blockspmv/internal/bcsd"
	"blockspmv/internal/bcsr"
	"blockspmv/internal/blocks"
	"blockspmv/internal/core"
	"blockspmv/internal/csr"
	"blockspmv/internal/csrdu"
	"blockspmv/internal/dcsr"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/machine"
	"blockspmv/internal/mat"
	"blockspmv/internal/multidec"
	"blockspmv/internal/overlay"
	"blockspmv/internal/parallel"
	"blockspmv/internal/profile"
	"blockspmv/internal/reorder"
	"blockspmv/internal/sell"
	"blockspmv/internal/solver"
	"blockspmv/internal/ubcsr"
	"blockspmv/internal/vbl"
	"blockspmv/internal/vbr"
)

// Float constrains the element types: float32 ("sp") or float64 ("dp").
type Float = floats.Float

// Matrix is a sparse matrix under assembly, in coordinate (triplet) form.
// Add entries, then Finalize before converting to a multiply-ready format.
type Matrix[T Float] = mat.COO[T]

// Entry is a single coordinate-form element.
type Entry[T Float] = mat.Entry[T]

// Format is a multiply-ready sparse matrix in some storage format. Mul
// computes y = A*x; see the formats package documentation for the full
// contract (row-range multiplies, working-set accounting, decomposition
// components).
type Format[T Float] = formats.Instance[T]

// Shape identifies a fixed block geometry: r x c rectangles for the BCSR
// family, length-b diagonals for the BCSD family.
type Shape = blocks.Shape

// Impl selects the kernel implementation class: Scalar or Vector ("simd").
type Impl = blocks.Impl

// Implementation classes.
const (
	Scalar = blocks.Scalar
	Vector = blocks.Vector
)

// RectShape returns the r x c rectangular block shape. Valid shapes have
// at most MaxBlockElems elements.
func RectShape(r, c int) Shape { return blocks.RectShape(r, c) }

// DiagShape returns the diagonal block shape of length b (2..8).
func DiagShape(b int) Shape { return blocks.DiagShape(b) }

// MaxBlockElems is the largest supported block, 8 elements, following the
// paper's finding that larger blocks never beat CSR.
const MaxBlockElems = blocks.MaxBlockElems

// NewMatrix returns an empty rows x cols matrix for assembly.
func NewMatrix[T Float](rows, cols int) *Matrix[T] { return mat.New[T](rows, cols) }

// ReadMatrixMarket parses a matrix in Matrix Market exchange format
// (coordinate or array; real, integer or pattern; general, symmetric or
// skew-symmetric). It never panics on malformed input: forged sizes,
// floods past the declared entry count and truncated streams return
// errors. It applies no size limits; use ReadMatrixMarketLimited for
// untrusted streams.
func ReadMatrixMarket[T Float](r io.Reader) (*Matrix[T], error) {
	return mat.ReadMatrixMarket[T](r)
}

// MatrixMarketLimits bounds the declared sizes ReadMatrixMarketLimited
// accepts; zero fields mean unbounded.
type MatrixMarketLimits = mat.Limits

// ErrMatrixMarketLimit marks a stream whose declared size exceeds the
// caller's MatrixMarketLimits.
var ErrMatrixMarketLimit = mat.ErrLimit

// ReadMatrixMarketLimited is ReadMatrixMarket with declared-size limits,
// checked against the header before anything is allocated. Streams over
// a limit fail with an error wrapping ErrMatrixMarketLimit.
func ReadMatrixMarketLimited[T Float](r io.Reader, lim MatrixMarketLimits) (*Matrix[T], error) {
	return mat.ReadMatrixMarketLimited[T](r, lim)
}

// WriteMatrixMarket writes a finalized matrix in Matrix Market coordinate
// real general format.
func WriteMatrixMarket[T Float](w io.Writer, m *Matrix[T]) error {
	return mat.WriteMatrixMarket(w, m)
}

// NewCSR converts a finalized matrix to the CSR baseline format.
func NewCSR[T Float](m *Matrix[T], impl Impl) Format[T] { return csr.FromCOO(m, impl) }

// NewCSRCompact converts a finalized matrix to CSR with the narrowest
// column-index type its width admits (uint8 up to 256 columns, uint16 up
// to 65536), shrinking the index stream the MEM model charges for by up
// to 4x. Wide matrices fall back to the plain 4-byte layout.
func NewCSRCompact[T Float](m *Matrix[T], impl Impl) Format[T] { return csr.NewCompact(m, impl) }

// NewCSRDU converts a finalized matrix to CSR-DU: column indices stored
// as per-row delta units of 1-, 2- or 4-byte gaps behind 2-byte unit
// headers (Kourtis, Goumas & Koziris). Locally dense matrices of any
// width compress their index stream to about one byte per nonzero.
func NewCSRDU[T Float](m *Matrix[T], impl Impl) Format[T] { return csrdu.New(m, impl) }

// NewBCSR converts a finalized matrix to BCSR with aligned, zero-padded
// r x c blocks (r*c <= MaxBlockElems).
func NewBCSR[T Float](m *Matrix[T], r, c int, impl Impl) Format[T] {
	return bcsr.New(m, r, c, impl)
}

// NewBCSRCompact is NewBCSR with the narrowest block-column-index type
// the matrix width admits; wide matrices fall back to the plain layout.
func NewBCSRCompact[T Float](m *Matrix[T], r, c int, impl Impl) Format[T] {
	return bcsr.NewCompact(m, r, c, impl)
}

// NewBCSRDec converts a finalized matrix to BCSR-DEC: completely dense
// aligned r x c blocks without padding plus a CSR remainder.
func NewBCSRDec[T Float](m *Matrix[T], r, c int, impl Impl) Format[T] {
	return bcsr.NewDecomposed(m, r, c, impl)
}

// NewUBCSR converts a finalized matrix to column-unaligned BCSR (Vuduc &
// Moon): r x c blocks anchored greedily at arbitrary columns, trading
// BCSR's alignment (and its vectorization friendliness) for less padding.
func NewUBCSR[T Float](m *Matrix[T], r, c int, impl Impl) Format[T] {
	return ubcsr.New(m, r, c, impl)
}

// NewBCSD converts a finalized matrix to BCSD with aligned, zero-padded
// diagonal blocks of length b (2..MaxBlockElems).
func NewBCSD[T Float](m *Matrix[T], b int, impl Impl) Format[T] {
	return bcsd.New(m, b, impl)
}

// NewBCSDCompact is NewBCSD with the narrowest diagonal-start-index type
// the matrix width admits; wide matrices fall back to the plain layout.
func NewBCSDCompact[T Float](m *Matrix[T], b int, impl Impl) Format[T] {
	return bcsd.NewCompact(m, b, impl)
}

// NewBCSDDec converts a finalized matrix to BCSD-DEC: completely dense
// aligned diagonal blocks without padding plus a CSR remainder.
func NewBCSDDec[T Float](m *Matrix[T], b int, impl Impl) Format[T] {
	return bcsd.NewDecomposed(m, b, impl)
}

// NewVBL converts a finalized matrix to 1D-VBL (variable-length
// horizontal blocks, Pinar & Heath). Blocks are the maximal runs of
// adjacent nonzeros in each row.
func NewVBL[T Float](m *Matrix[T], impl Impl) Format[T] { return vbl.New(m, impl) }

// NewVBLDP converts a finalized matrix to 1D-VBL with blocks chosen by a
// per-row dynamic program that minimizes the exact stored-byte footprint,
// merging nearby runs (padding the gap with explicit zeros) whenever the
// merge shrinks the stream the MEM model charges for. The result is never
// larger than NewVBL's.
func NewVBLDP[T Float](m *Matrix[T], impl Impl) Format[T] { return vbl.NewDP(m, impl) }

// NewVBR converts a finalized matrix to VBR (two-dimensional variable
// blocks over a pattern-consistent row/column partition, SPARSKIT). The
// partition groups adjacent rows and columns with identical sparsity
// patterns, so no block carries fill.
func NewVBR[T Float](m *Matrix[T], impl Impl) Format[T] { return vbr.New(m, impl) }

// NewVBRDP converts a finalized matrix to VBR over a cost-model-driven
// partition: a dynamic program (after Ahrens & Boman) aggregates rows and
// columns with merely similar patterns into block rows and columns,
// accepting zero fill inside blocks whenever the exact priced stream —
// values plus every VBR index array — shrinks. The result is never larger
// than NewVBR's, and on matrices with near-shared row sparsity (FEM-style
// multi-dof problems) it is substantially smaller.
func NewVBRDP[T Float](m *Matrix[T], impl Impl) Format[T] { return vbr.NewDP(m, impl) }

// NewSELL converts a finalized matrix to SELL-C-σ (sorted sliced
// ELLPACK): rows sorted by descending length inside scopes of sigma
// rows (1 keeps the natural order, 0 or >= rows sorts the whole
// matrix), grouped into slices of chunk rows, each slice padded to its
// own longest row and stored column-major. The row permutation is
// applied on output, so results stay bit-for-bit identical to CSR. The
// format needs no nonzero adjacency at all, making it the candidate
// class for scatter-dominated matrices (uniform random, power-law
// graphs, LP constraints) where every blocked format loses to CSR.
func NewSELL[T Float](m *Matrix[T], chunk, sigma int, impl Impl) Format[T] {
	return sell.New(m, chunk, sigma, impl)
}

// NewSELLCompact is NewSELL with the narrowest column-index type the
// matrix width admits; wide matrices fall back to the 4-byte layout.
func NewSELLCompact[T Float](m *Matrix[T], chunk, sigma int, impl Impl) Format[T] {
	return sell.NewCompact(m, chunk, sigma, impl)
}

// NewMultiDec converts a finalized matrix to the k=3 multi-pattern
// decomposition of Agarwal et al.: completely dense aligned r x c blocks,
// completely dense aligned length-b diagonal blocks extracted from the
// remainder, and a CSR tail — never any padding.
func NewMultiDec[T Float](m *Matrix[T], r, c, b int, impl Impl) Format[T] {
	return multidec.New(m, r, c, b, impl)
}

// NewDCSR converts a finalized matrix to delta-compressed CSR: column
// indices stored as per-row variable-length deltas (1 byte for gaps under
// 255), the index-compression branch of the working-set-reduction
// optimizations (Willcock & Lumsdaine; Kourtis et al.).
func NewDCSR[T Float](m *Matrix[T]) Format[T] { return dcsr.New(m) }

// MutableFormat is a delta overlay over a multiply-ready format: it
// implements Format and additionally accepts point updates — Set, Add,
// Delete, or atomic batches via Apply — whose effects every subsequent
// multiply observes without rebuilding the base. Pending updates cost
// extra streamed bytes per multiply (ExtraBytes); merge them into a
// freshly constructed base with MergedCOO when the overlay grows, or
// let the serving registry's background recompaction do it.
type MutableFormat[T Float] = overlay.Overlay[T]

// UpdateOp is the operation of one point update.
type UpdateOp = overlay.Op

// Update operations: set a cell to a value, add to it, or delete it.
const (
	OpSet    = overlay.OpSet
	OpAdd    = overlay.OpAdd
	OpDelete = overlay.OpDelete
)

// Update is one point update for MutableFormat.Apply.
type Update[T Float] = overlay.Update[T]

// NewOverlay wraps a format and the finalized matrix it was constructed
// from in a mutable delta overlay. The matrix is retained as ground
// truth and must not be mutated afterwards; it panics when f was not
// constructed from m (dimension or nonzero-count mismatch).
func NewOverlay[T Float](f Format[T], m *Matrix[T]) *MutableFormat[T] {
	return overlay.Wrap(f, m)
}

// Machine describes the host parameters the models consume: cache sizes
// and the effective streaming bandwidth.
type Machine = machine.Machine

// DetectMachine characterises the current host: cache sizes from sysfs
// (with Core 2 defaults as fallback) and a STREAM-triad bandwidth
// measurement. It takes on the order of a second.
func DetectMachine() Machine { return machine.Detect() }

// Profile is a per-kernel profile table: the single-block time t_b and
// non-overlapping factor nof_b for every block shape and implementation.
type Profile = profile.Table

// CollectProfile profiles every kernel for precision T on the machine:
// t_b on an L1-resident dense matrix, nof_b on a cache-exceeding one. It
// takes tens of seconds; persist the result with Profile.Save and reload
// it with LoadProfile.
func CollectProfile[T Float](m Machine) *Profile {
	return profile.Collect[T](m, profile.Options{})
}

// ProfileOptions tunes the profiling working sets; the zero value selects
// machine-derived defaults.
type ProfileOptions = profile.Options

// CollectProfileWith is CollectProfile with explicit profiling options.
func CollectProfileWith[T Float](m Machine, opts ProfileOptions) *Profile {
	return profile.Collect[T](m, opts)
}

// LoadProfile reads a profile previously written by Profile.Save.
func LoadProfile(r io.Reader) (*Profile, error) { return profile.Load(r) }

// Model predicts SpMV execution time for candidate formats. The three
// implementations are the paper's MEM, MEMCOMP and OVERLAP.
type Model = core.Model

// Candidate is one point of the selection space: method, block shape and
// implementation class.
type Candidate = core.Candidate

// Prediction pairs a candidate with its predicted seconds per multiply.
type Prediction = core.Prediction

// Models returns the three performance models in the paper's order:
// MEM, MEMCOMP, OVERLAP.
func Models() []Model { return core.Models() }

// ModelByName returns the model named "MEM", "MEMCOMP" or "OVERLAP".
func ModelByName(name string) (Model, error) { return core.ModelByName(name) }

// MulVecs computes y[l] = A*x[l] for every right-hand side in the panel
// x with a single traversal of the matrix: the vectors are packed into a
// row-major k-wide panel and multiplied through the format's panel
// kernels, so the matrix stream — the traffic that dominates SpMV — is
// paid once for all k vectors instead of k times. Results are bit-for-bit
// identical to k separate f.Mul calls. Like f.Mul it panics on operand
// shape mismatches; use MulVecsChecked for untrusted input, or
// ParallelMul.MulVecs for the pooled multithreaded path.
func MulVecs[T Float](f Format[T], x, y [][]T) { formats.MulVecs(f, x, y) }

// Rank prices every candidate format for the matrix under the model and
// returns the predictions sorted fastest-first. The selection space is
// the paper's (CSR, BCSR, BCSD and their decompositions) plus the
// compressed-index variants the matrix admits — narrow-index mirrors of
// every blocked shape and the delta-encoded CSR-DU — ranked on equal
// footing via their exact working-set sizes.
//
// Caveat: the models price CSR-DU by its byte stream alone. On patterns
// whose column gaps defeat delta grouping (e.g. uniform-random rows),
// the encoder emits near-singleton units whose decode overhead is not
// modelled, and a measured CSR-DU can fall far short of its prediction;
// the fixed-width compact variants carry no such decode cost and are
// the robust choice there (see EXPERIMENTS.md, index compression).
// Rank degrades gracefully: when the machine or profile cannot drive the
// model (bandwidth unmeasured; profile absent, incomplete or invalid), it
// returns a single scalar-CSR prediction flagged Degraded instead of
// panicking.
func Rank[T Float](m *Matrix[T], model Model, mach Machine, prof *Profile) []Prediction {
	return RankRHS(m, model, mach, prof, 1)
}

// RankRHS is Rank for a k-wide panel of right-hand sides (SpMM, MulVecs):
// the models charge the matrix stream once but the vector streams and the
// computational term k times, so the predicted seconds cover the whole
// panel and the ranking can shift — heavy-storage formats amortize their
// matrix bytes over k vectors and gain on lighter ones as k grows.
// rhs values below 1 are priced as the single-vector multiply.
func RankRHS[T Float](m *Matrix[T], model Model, mach Machine, prof *Profile, rhs int) []Prediction {
	if m == nil {
		return []Prediction{{Degraded: true, Reason: "nil matrix"}}
	}
	m.Finalize()
	return core.RankSafe(model, core.WithRHS(core.StatsOf(m), rhs), mach, prof)
}

// Autotune selects the best storage format for the matrix with the
// OVERLAP model (the paper's most accurate) and returns the constructed
// format together with the winning prediction.
//
// Autotune never panics: when the machine or profile cannot drive the
// model — bandwidth unmeasured; profile absent, incomplete or carrying
// invalid timings — it degrades to the always-safe scalar CSR baseline
// and flags the returned Prediction as Degraded with a Reason. A nil or
// unconvertible matrix returns a nil format with a degraded Prediction.
func Autotune[T Float](m *Matrix[T], mach Machine, prof *Profile) (Format[T], Prediction) {
	return AutotuneWith(m, core.Overlap{}, mach, prof)
}

// AutotuneRHS is Autotune for a workload of k-wide panel multiplies
// (MulVecs with k right-hand sides): candidates are priced with the
// matrix stream charged once and the vector streams and computation
// charged k times, so the selected format is the best one for the SpMM
// traffic pattern rather than the single-vector one.
func AutotuneRHS[T Float](m *Matrix[T], mach Machine, prof *Profile, rhs int) (Format[T], Prediction) {
	return autotune(m, core.Overlap{}, mach, prof, rhs)
}

// AutotuneWith is Autotune under a caller-chosen model. Like Rank, it
// selects over the paper's formats and the compressed-index variants,
// with the same graceful-degradation contract as Autotune.
func AutotuneWith[T Float](m *Matrix[T], model Model, mach Machine, prof *Profile) (Format[T], Prediction) {
	return autotune(m, model, mach, prof, 1)
}

func autotune[T Float](m *Matrix[T], model Model, mach Machine, prof *Profile, rhs int) (Format[T], Prediction) {
	if m == nil {
		return nil, Prediction{Degraded: true, Reason: "nil matrix"}
	}
	m.Finalize()
	f, best, _ := core.Tune(m, model, mach, prof, rhs)
	return f, best
}

// Instantiate constructs the storage format a candidate describes, e.g.
// one returned by Rank or Autotune.
func Instantiate[T Float](m *Matrix[T], c Candidate) Format[T] {
	return core.Instantiate(m, c)
}

// ParallelMul is a multithreaded y = A*x executor over a fixed row
// partition balanced by stored scalars (including padding), the paper's
// static load-balancing scheme. The workers are a persistent pool started
// at construction and pinned to their row ranges: repeated MulVec calls
// (the iterative-solver traffic pattern) pay no per-call goroutine spawns
// and no allocations, and each worker zero-fills its own slice of y so
// the output vector stays first-touched by its owning thread. Call Close
// to retire the pool.
//
// MulVec never panics and never deadlocks: dimension mismatches and use
// after Close return typed errors, and a panic inside a kernel on any
// worker is recovered and returned as a *PanicError naming the part; the
// pool is then poisoned and further calls fail fast (see the README's
// "Error handling & degraded modes").
type ParallelMul[T Float] = parallel.Mul[T]

// NewParallelMul prepares a multithreaded multiply with the given number
// of workers. Workers are started only for non-empty partition ranges,
// so oversubscribing a small matrix costs nothing.
func NewParallelMul[T Float](f Format[T], workers int) *ParallelMul[T] {
	return parallel.NewMul(f, workers, parallel.BalanceWeights)
}

// WorkingSetBytes returns the full streaming working set of a format:
// matrix structures plus input and output vectors.
func WorkingSetBytes[T Float](f Format[T]) int64 { return formats.WorkingSetBytes(f) }

// SolverOptions controls the iterative solvers; the zero value selects a
// precision-appropriate tolerance, a 10n iteration cap and serial
// execution. Setting Workers > 1 runs the whole solver iteration — the
// SpMV through a ParallelMul pool and the vector kernels (dot, axpy,
// norm, the fused recurrence updates) through a matching worker team —
// on that many threads, so end-to-end solve time scales with cores, not
// just the multiply.
type SolverOptions = solver.Options

// SolverStats reports the work a solve performed: iterations, SpMV count
// and the final relative residual.
type SolverStats = solver.Stats

// SolveCG solves A x = b with conjugate gradients for symmetric
// positive-definite A in any storage format, overwriting x (initial
// guess). SpMV dominates its runtime, so format selection carries through
// to end-to-end solve time; see examples/solver. This is also the
// parallel-solver entry point: SolverOptions.Workers > 1 runs every
// iteration on persistent worker pools.
func SolveCG[T Float](a Format[T], b, x []T, opts SolverOptions) (SolverStats, error) {
	return solver.CG(a, b, x, opts)
}

// SolveBiCGSTAB solves A x = b with stabilised bi-conjugate gradients for
// general square A, overwriting x.
func SolveBiCGSTAB[T Float](a Format[T], b, x []T, opts SolverOptions) (SolverStats, error) {
	return solver.BiCGSTAB(a, b, x, opts)
}

// JacobiPreconditioner is the diagonal preconditioner M = diag(A).
type JacobiPreconditioner[T Float] = solver.JacobiPreconditioner[T]

// NewJacobi extracts the inverse diagonal of a finalized square matrix
// for use with SolvePCG. Non-square matrices return an error, like every
// other solver entry point.
func NewJacobi[T Float](m *Matrix[T]) (*JacobiPreconditioner[T], error) {
	return solver.NewJacobi(m)
}

// SolvePCG solves A x = b with Jacobi-preconditioned conjugate gradients
// for symmetric positive-definite A, overwriting x.
func SolvePCG[T Float](a Format[T], pre *JacobiPreconditioner[T], b, x []T, opts SolverOptions) (SolverStats, error) {
	return solver.PCG(a, pre, b, x, opts)
}

// Permutation maps new indices to old: perm[new] = old.
type Permutation = reorder.Permutation

// RCM computes the Reverse Cuthill-McKee ordering of a square matrix's
// symmetrised pattern. Reordering regularises input-vector accesses (the
// complement of blocking among SpMV optimizations) and often makes
// blocking itself denser; apply with Reorder.
func RCM[T Float](m *Matrix[T]) (Permutation, error) {
	return reorder.RCM(mat.PatternOf(m))
}

// Reorder returns the symmetrically permuted matrix P A Pᵀ. Multiply it
// against PermuteVec(x, perm) and map the result back with UnpermuteVec.
func Reorder[T Float](m *Matrix[T], perm Permutation) (*Matrix[T], error) {
	return reorder.Apply(m, perm)
}

// PermuteVec gathers x into the permuted index space: out[i] = x[perm[i]].
func PermuteVec[T Float](x []T, perm Permutation) []T {
	return reorder.PermuteVec(x, perm)
}

// UnpermuteVec scatters a permuted vector back: out[perm[i]] = y[i].
func UnpermuteVec[T Float](y []T, perm Permutation) []T {
	return reorder.UnpermuteVec(y, perm)
}
