package core

import (
	"fmt"
	"sort"

	"blockspmv/internal/blocks"
	"blockspmv/internal/machine"
	"blockspmv/internal/profile"
)

// Prediction is a candidate together with its model-predicted execution
// time for one multiplication.
type Prediction struct {
	Cand    Candidate
	Seconds float64
	// Degraded marks a fallback selection made without a usable model
	// evaluation: the candidate is the always-safe scalar CSR baseline,
	// not a modelled winner, and Seconds is the streaming lower bound
	// when the bandwidth is known, 0 otherwise.
	Degraded bool
	// Reason says why the selection degraded; empty when Degraded is
	// false.
	Reason string
}

// Rank prices every candidate under the model and returns the predictions
// sorted fastest-first. Ties preserve the Candidates() order, which puts
// scalar implementations before simd ones — this is how the MEM model,
// blind to the computational part, "selects the non-simd version by
// default" (Section V.B).
func Rank(model Model, stats []CandidateStats, m machine.Machine, prof *profile.Table) []Prediction {
	preds := make([]Prediction, len(stats))
	for i, cs := range stats {
		preds[i] = Prediction{Cand: cs.Cand, Seconds: model.Predict(cs, m, prof)}
	}
	sort.SliceStable(preds, func(i, j int) bool { return preds[i].Seconds < preds[j].Seconds })
	return preds
}

// Select returns the model's fastest-predicted candidate.
func Select(model Model, stats []CandidateStats, m machine.Machine, prof *profile.Table) Prediction {
	if len(stats) == 0 {
		panic("core: Select on empty candidate set")
	}
	best := Prediction{Cand: stats[0].Cand, Seconds: model.Predict(stats[0], m, prof)}
	for _, cs := range stats[1:] {
		if s := model.Predict(cs, m, prof); s < best.Seconds {
			best = Prediction{Cand: cs.Cand, Seconds: s}
		}
	}
	return best
}

// unusableReason reports why the (machine, profile) pair cannot drive the
// model, or "" when it can. MEM needs only the bandwidth; the profiled
// models additionally need a complete, well-formed profile.
func unusableReason(model Model, m machine.Machine, prof *profile.Table) string {
	if m.BandwidthBytesPerSec <= 0 {
		return "machine bandwidth not measured"
	}
	if _, memOnly := model.(Mem); memOnly {
		return ""
	}
	if prof == nil {
		return "kernel profile absent"
	}
	if err := prof.Validate(); err != nil {
		return "kernel profile rejected: " + err.Error()
	}
	return ""
}

// baseline is the always-safe scalar CSR candidate every degraded
// selection falls back to.
var baseline = Candidate{Method: CSR, Shape: blocks.RectShape(1, 1), Impl: blocks.Scalar}

// fallback is the degraded prediction: the scalar CSR baseline, priced by
// the streaming model when the bandwidth allows it. The served space may
// hold CSR only at a narrow width, so the baseline is priced from the
// matrix-level fields of any entry.
func fallback(stats []CandidateStats, m machine.Machine, reason string) Prediction {
	p := Prediction{Cand: baseline, Degraded: true, Reason: reason}
	if m.BandwidthBytesPerSec > 0 && len(stats) > 0 {
		p.Seconds = Mem{}.Predict(baselineStats(stats[0]), m, nil)
	}
	return p
}

// baselineStats prices the scalar CSR baseline on the matrix cs describes,
// from its rows, nonzeros, vector bytes and panel width.
func baselineStats(cs CandidateStats) CandidateStats {
	return CandidateStats{
		Cand: baseline, Rows: cs.Rows, Cols: cs.Cols, NNZ: cs.NNZ,
		VectorBytes: cs.VectorBytes, RHS: cs.RHS, IrregularAccesses: cs.IrregularAccesses,
		Components: []ComponentStats{{
			Shape: baseline.Shape, Impl: baseline.Impl,
			Blocks:  cs.NNZ,
			WSBytes: csrBytes(cs.Rows, cs.NNZ, cs.valSize(), baseline.Width.Bytes()),
		}},
	}
}

// SelectSafe is Select with graceful degradation: when the machine or
// profile cannot drive the model — bandwidth unmeasured, profile absent,
// incomplete or carrying invalid timings — or model evaluation panics,
// it returns the scalar CSR baseline flagged Degraded instead of
// panicking. CSR is the paper's always-applicable format: every matrix
// converts to it, so a selection pipeline built on SelectSafe keeps
// producing runnable configurations on arbitrary input.
func SelectSafe(model Model, stats []CandidateStats, m machine.Machine, prof *profile.Table) (pred Prediction) {
	if len(stats) == 0 {
		return fallback(nil, m, "empty candidate set")
	}
	if reason := unusableReason(model, m, prof); reason != "" {
		return fallback(stats, m, reason)
	}
	defer func() {
		if r := recover(); r != nil {
			pred = fallback(stats, m, fmt.Sprintf("model evaluation panicked: %v", r))
		}
	}()
	return Select(model, stats, m, prof)
}

// RankSafe is Rank with the same degradation contract as SelectSafe: on
// unusable inputs it returns the single degraded CSR prediction instead
// of panicking mid-ranking.
func RankSafe(model Model, stats []CandidateStats, m machine.Machine, prof *profile.Table) (preds []Prediction) {
	if reason := unusableReason(model, m, prof); reason != "" {
		return []Prediction{fallback(stats, m, reason)}
	}
	defer func() {
		if r := recover(); r != nil {
			preds = []Prediction{fallback(stats, m, fmt.Sprintf("model evaluation panicked: %v", r))}
		}
	}()
	return Rank(model, stats, m, prof)
}
