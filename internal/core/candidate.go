// Package core implements the paper's contribution: the MEM, MEMCOMP and
// OVERLAP performance models (Section IV) and the machinery to enumerate,
// cost and select among the candidate storage formats and block shapes for
// a given sparse matrix.
//
// The models operate on construction-free candidate statistics (exact
// block and padding counts from the sparsity pattern, internal/blocks), a
// machine description (internal/machine) and a kernel profile
// (internal/profile). Selecting a format therefore never requires building
// it; the experiment harness builds only what it wants to time.
package core

import (
	"fmt"

	"blockspmv/internal/blocks"
	"blockspmv/internal/idx"
	"blockspmv/internal/sell"
)

// Method enumerates the storage methods the models choose between. The
// paper excludes the variable-size formats from modelling (Section IV:
// "We do not consider variable size blocking methods"); this library
// extends the candidate space with them anyway — VBR and VBL carry exact
// construction-free byte accounting (internal/partition), so the models
// can rank them like any fixed-shape method. They appear only in the
// served enumeration (CandidatesFor / EnumerateStatsAll), never in the
// paper-faithful baseline Candidates().
type Method int

const (
	// CSR is the baseline format, modelled as 1x1 blocking with nb = nnz.
	CSR Method = iota
	// BCSR is fixed r x c blocking with padding.
	BCSR
	// BCSRDec is the BCSR decomposition: full blocks + CSR remainder.
	BCSRDec
	// BCSD is fixed diagonal blocking with padding.
	BCSD
	// BCSDDec is the BCSD decomposition: full diagonals + CSR remainder.
	BCSDDec
	// CSRDU is the delta-unit compressed CSR variant (internal/csrdu):
	// modelled like CSR as 1x1 blocking with nb = nnz, but with the
	// encoded column stream in place of explicit indices and the DU
	// decoder's profiled block time.
	CSRDU
	// VBR is the Variable Block Row format (internal/vbr): variable-size
	// dense blocks over a row/column partition, modelled as 1x1 blocking
	// with nb = stored scalars and the vbr kernel variant's block time.
	VBR
	// VBL is the 1D Variable Block Length format (internal/vbl):
	// variable-length horizontal blocks, modelled like VBR with the vbl
	// kernel variant.
	VBL
	// SELL is the sorted sliced ELLPACK format SELL-C-σ (internal/sell):
	// slices of C rows padded to the slice's longest row, rows σ-sorted
	// by length to shrink the padding. Modelled as 1x1 blocking with
	// nb = stored scalars (padding included) and the sell kernel
	// variant's block time; the padded stream is priced exactly and
	// construction-free (sell.StreamBytes).
	SELL
)

func (m Method) String() string {
	switch m {
	case CSR:
		return "CSR"
	case BCSR:
		return "BCSR"
	case BCSRDec:
		return "BCSR-DEC"
	case BCSD:
		return "BCSD"
	case BCSDDec:
		return "BCSD-DEC"
	case CSRDU:
		return "CSR-DU"
	case VBR:
		return "VBR"
	case VBL:
		return "1D-VBL"
	case SELL:
		return "SELL"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists all modelled methods in evaluation order.
func Methods() []Method { return []Method{CSR, BCSR, BCSRDec, BCSD, BCSDDec} }

// Part selects how a variable-block candidate's block boundaries are
// chosen. It is meaningful only for the VBR and VBL methods; the
// fixed-shape methods leave it at the zero PartNone.
type Part uint8

const (
	// PartNone marks the fixed-shape methods, which have no partition
	// choice.
	PartNone Part = iota
	// PartRuns is the run-detection heuristic: identical-pattern row and
	// column groups for VBR, maximal horizontal runs for VBL.
	PartRuns
	// PartDP is the cost-model dynamic program of internal/partition,
	// which minimizes the exact streamed footprint and is never worse
	// than PartRuns.
	PartDP
)

// Candidate is one point of the selection space: a method, its block
// shape (meaningless for CSR, CSR-DU and the variable-block methods),
// the kernel implementation class, the column-index storage width, the
// partitioning strategy (variable-block methods only), and the slice
// height and sorting scope (SELL only). The zero Width is the paper's
// 4-byte index; the served space (CandidatesFor) lists each fixed-shape
// and SELL candidate only at the width the matrix's column count fits,
// and CSR-DU ignores the field (its indices are delta-encoded, not
// fixed-width). Chunk and Sigma are zero for every non-SELL method; for
// SELL, Sigma follows the sell package convention that a non-positive
// value means whole-matrix sorting ("n").
type Candidate struct {
	Method Method
	Shape  blocks.Shape
	Impl   blocks.Impl
	Width  idx.Width
	Part   Part
	Chunk  int
	Sigma  int
}

// String renders the candidate like the format instances name themselves:
// "BCSR(2x3)/simd", "CSR", "BCSD(d4)/ix16", "CSR-DU/simd", "VBR-DP",
// "1D-VBL/simd", "SELL-8-n/ix16".
func (c Candidate) String() string {
	s := c.Method.String()
	switch c.Method {
	case VBR, VBL:
		if c.Part == PartDP {
			s += "-DP"
		}
	case SELL:
		s = fmt.Sprintf("SELL-%d-%s", c.Chunk, sell.SigmaName(c.Sigma))
		s += c.Width.Suffix()
	case CSRDU:
	case CSR:
		s += c.Width.Suffix()
	default:
		s += "(" + c.Shape.String() + ")"
		s += c.Width.Suffix()
	}
	if c.Impl == blocks.Vector {
		s += "/simd"
	}
	return s
}

// Candidates enumerates the full selection space the paper's experiments
// rank: CSR, every BCSR and BCSR-DEC rectangular shape with at most eight
// elements, and every BCSD and BCSD-DEC diagonal length, each in scalar
// and simd variants, at the paper's 4-byte index width. Scalar candidates
// precede simd ones so that models that cannot distinguish
// implementations (MEM) resolve ties to the non-simd version, as the
// paper does.
func Candidates() []Candidate {
	var out []Candidate
	for _, impl := range blocks.Impls() {
		out = append(out, fixedShapes(impl, idx.W32)...)
	}
	return out
}

// fixedShapes lists the fixed-shape candidates of one implementation at
// one index width, in the paper's order: CSR, then BCSR and BCSR-DEC per
// rectangular shape, then BCSD and BCSD-DEC per diagonal length.
func fixedShapes(impl blocks.Impl, w idx.Width) []Candidate {
	out := []Candidate{{Method: CSR, Shape: blocks.RectShape(1, 1), Impl: impl, Width: w}}
	for _, s := range blocks.RectShapes() {
		out = append(out,
			Candidate{Method: BCSR, Shape: s, Impl: impl, Width: w},
			Candidate{Method: BCSRDec, Shape: s, Impl: impl, Width: w})
	}
	for _, s := range blocks.DiagShapes() {
		out = append(out,
			Candidate{Method: BCSD, Shape: s, Impl: impl, Width: w},
			Candidate{Method: BCSDDec, Shape: s, Impl: impl, Width: w})
	}
	return out
}

// CandidatesFor enumerates the space a matrix of cols columns is selected
// over (EnumerateStatsAll): per implementation CSR-DU and the fixed-shape
// candidates, then the variable-block and SELL candidates, each
// fixed-shape and SELL candidate at the one index width the columns fit
// (idx.FitsCols). A 4-byte twin of a narrow candidate has the same
// compute term and more bytes under every model, so it is not listed.
func CandidatesFor(cols int) []Candidate {
	w := idx.FitsCols(cols)
	var out []Candidate
	for _, impl := range blocks.Impls() {
		out = append(out, Candidate{Method: CSRDU, Shape: blocks.RectShape(1, 1), Impl: impl})
		out = append(out, fixedShapes(impl, w)...)
	}
	out = append(out, CandidatesPartitioned()...)
	return append(out, CandidatesSell(cols)...)
}

// CandidatesPartitioned enumerates the variable-block candidates: VBR and
// 1D-VBL, each with the run-detection heuristic partition and the
// cost-model DP partition, in scalar and simd variants. Scalar precedes
// simd and the heuristic precedes the DP, so models that cannot separate
// them (MEM prices scalar and simd identically) resolve ties to the
// simpler candidate. EnumerateStatsAll drops a DP candidate whose
// partition prices exactly like run detection.
func CandidatesPartitioned() []Candidate {
	var out []Candidate
	for _, impl := range blocks.Impls() {
		for _, m := range []Method{VBR, VBL} {
			for _, pt := range []Part{PartRuns, PartDP} {
				out = append(out, Candidate{Method: m, Shape: blocks.RectShape(1, 1), Impl: impl, Part: pt})
			}
		}
	}
	return out
}

// SellChunks lists the slice heights of the SELL candidate space; they
// match the generated kernel set (internal/kernels/gen).
func SellChunks() []int { return []int{4, 8, 32} }

// CandidatesSell enumerates the SELL-C-σ candidates a matrix of the
// given width admits: every slice height of SellChunks(), unsorted
// (σ=1) and whole-matrix sorted (σ=n, encoded Sigma=0), at the index
// width the column count fits. Scalar precedes simd and unsorted
// precedes sorted, so models blind to a distinction (MEM prices scalar
// and simd identically, and σ cannot reduce padding on uniform row
// lengths) resolve ties to the simpler candidate.
func CandidatesSell(cols int) []Candidate {
	var out []Candidate
	w := idx.FitsCols(cols)
	for _, impl := range blocks.Impls() {
		for _, c := range SellChunks() {
			for _, sigma := range []int{1, 0} {
				out = append(out, Candidate{Method: SELL, Shape: blocks.RectShape(1, 1), Impl: impl, Width: w, Chunk: c, Sigma: sigma})
			}
		}
	}
	return out
}
