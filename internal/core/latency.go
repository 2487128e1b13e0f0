package core

import (
	"blockspmv/internal/machine"
	"blockspmv/internal/profile"
)

// IrregularGap is the access-distance threshold of the latency proxy: a
// column more than this many positions past the previous access in the
// row falls outside the fetched-and-prefetched window and is counted as a
// likely miss. Eight elements is one 64-byte line of float64.
const IrregularGap = 8

// OverlapLat is the OVERLAP+LAT extension model — the future work the
// paper names in its conclusions ("we intend to extend these models to
// also account for memory latencies, which in some cases consist the main
// performance bottleneck"). It adds to OVERLAP a latency term for the
// irregular input-vector accesses that Section V.B shows all three paper
// models miss:
//
//	t = t_OVERLAP + miss_fraction · irregular · L
//
// where irregular is the pattern's irregular-access count (IrregularGap),
// L is the machine's measured dependent-load latency, and miss_fraction
// scales by how much of the input vector can stay cached:
// min(1, x_bytes / LLC). On bandwidth-bound matrices the term is small
// and OVERLAP+LAT degenerates to OVERLAP; on latency-bound matrices
// (wikipedia, rail4284, spal_004, thermal2) it recovers the factor the
// paper's models under-predict by.
type OverlapLat struct{}

// Name implements Model.
func (OverlapLat) Name() string { return "OVERLAP+LAT" }

// Predict implements Model.
func (OverlapLat) Predict(cs CandidateStats, m machine.Machine, prof *profile.Table) float64 {
	t := Overlap{}.Predict(cs, m, prof)
	if m.LoadLatencySeconds <= 0 || cs.IrregularAccesses == 0 {
		return t
	}
	xBytes := int64(cs.Cols) * int64(cs.valSize())
	missFraction := 1.0
	if m.LLCBytes > 0 && xBytes < m.LLCBytes {
		missFraction = float64(xBytes) / float64(m.LLCBytes)
	}
	return t + missFraction*float64(cs.IrregularAccesses)*m.LoadLatencySeconds
}

// ExtendedModels returns the paper's three models plus the OVERLAP+LAT
// extension.
func ExtendedModels() []Model {
	return append(Models(), OverlapLat{})
}
