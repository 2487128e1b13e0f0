// Package partition chooses block boundaries for the variable-block
// formats (internal/vbr, internal/vbl) by minimizing the modeled matrix
// stream, the quantity the paper's MEM model says governs SpMV time.
//
// The row/column aggregation follows Ahrens & Boman ("On Optimal
// Partitioning For Sparse Matrices In Variable Block Row Format"): a
// linear-time dynamic program over candidate block boundaries whose
// objective is the exact byte footprint of the partitioned matrix, per
// Langr's accounting ("On Memory Footprints of Partitioned Sparse
// Matrices"). Everything here is construction-free: partitions are priced
// from the sparsity pattern alone, without materializing a format
// instance — VBRStats on a candidate partition returns exactly the
// MatrixBytes/StoredScalars/Blocks the constructed vbr.Matrix would
// report (the conformance suite audits this bit for bit).
//
// This package must not import the format packages (they import it); the
// import direction is the compile-time guarantee that pricing never
// builds a matrix.
package partition

import (
	"fmt"

	"blockspmv/internal/mat"
)

// MaxMerge bounds the dynamic program's merge window: a block row (or
// block column) aggregates at most this many pattern-distinct atoms. The
// window keeps the DP linear in the number of atoms; since every group of
// identical-pattern rows is a single atom, the window limits pattern
// diversity inside a block, not block height.
const MaxMerge = 16

// vbrBlockBytes is the per-block index overhead of the VBR layout: one
// 4-byte bcolInd entry plus one 4-byte valPtr entry.
const vbrBlockBytes = 8

// vbrBlockRowBytes is the per-block-row overhead: one 4-byte rpntr entry
// plus one 4-byte browPtr entry.
const vbrBlockRowBytes = 8

// vbrBlockColBytes is the per-block-column overhead: one 4-byte cpntr
// entry.
const vbrBlockColBytes = 4

// VBRPartition is a candidate two-dimensional partition for the VBR
// format: block-row boundaries Rpntr (len nBlockRows+1, Rpntr[0] = 0,
// Rpntr[last] = rows, non-decreasing) and block-column boundaries Cpntr
// with the same shape over the columns.
type VBRPartition struct {
	Rpntr []int32
	Cpntr []int32
}

// Validate checks the partition against a rows x cols matrix: both
// pointer arrays must be non-empty, start at 0, end at the dimension, and
// be non-decreasing (empty blocks are permitted, matching the degenerate
// partitions the identity heuristic emits for empty matrices).
func (pt VBRPartition) Validate(rows, cols int) error {
	if err := validateBounds("rpntr", pt.Rpntr, rows); err != nil {
		return err
	}
	return validateBounds("cpntr", pt.Cpntr, cols)
}

func validateBounds(name string, b []int32, n int) error {
	if len(b) < 2 {
		return fmt.Errorf("partition: %s has %d entries, want at least 2", name, len(b))
	}
	if b[0] != 0 {
		return fmt.Errorf("partition: %s[0] = %d, want 0", name, b[0])
	}
	if int(b[len(b)-1]) != n {
		return fmt.Errorf("partition: %s ends at %d, want %d", name, b[len(b)-1], n)
	}
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			return fmt.Errorf("partition: %s[%d] = %d < %s[%d] = %d (non-monotone)",
				name, i, b[i], name, i-1, b[i-1])
		}
	}
	return nil
}

// Stats is the construction-free price of a partitioned format: exactly
// the Blocks/StoredScalars/MatrixBytes the built instance reports.
type Stats struct {
	// BlockRows and BlockCols are the partition dimensions (zero for the
	// one-dimensional 1D-VBL pricing, which has no column partition).
	BlockRows, BlockCols int
	// Blocks is the number of stored variable-size blocks.
	Blocks int64
	// Stored is the number of stored scalars including zero fill.
	Stored int64
	// Bytes is the exact streamed matrix footprint: values plus every
	// index array of the format's layout.
	Bytes int64
}

// Identity returns the run-detection heuristic partition the original
// vbr.New used: consecutive rows (and columns) with identical sparsity
// patterns are grouped, so every stored block is completely dense and no
// fill is ever introduced.
func Identity(p *mat.Pattern) VBRPartition {
	return VBRPartition{
		Rpntr: boundsByPattern(p),
		Cpntr: boundsByPattern(Transpose(p)),
	}
}

// boundsByPattern returns block boundaries grouping consecutive rows of p
// with identical column patterns.
func boundsByPattern(p *mat.Pattern) []int32 {
	bounds := []int32{0}
	for r := 1; r < p.Rows; r++ {
		if !equalInt32(p.RowCols(r), p.RowCols(r-1)) {
			bounds = append(bounds, int32(r))
		}
	}
	bounds = append(bounds, int32(p.Rows))
	return bounds
}

// Transpose returns the transposed sparsity pattern (CSC view of p).
func Transpose(p *mat.Pattern) *mat.Pattern {
	t := &mat.Pattern{
		Rows:   p.Cols,
		Cols:   p.Rows,
		RowPtr: make([]int32, p.Cols+1),
		ColInd: make([]int32, p.NNZ()),
	}
	for _, c := range p.ColInd {
		t.RowPtr[c+1]++
	}
	for c := 0; c < p.Cols; c++ {
		t.RowPtr[c+1] += t.RowPtr[c]
	}
	cursor := make([]int32, p.Cols)
	copy(cursor, t.RowPtr[:p.Cols])
	for r := 0; r < p.Rows; r++ {
		for _, c := range p.RowCols(r) {
			t.ColInd[cursor[c]] = int32(r)
			cursor[c]++
		}
	}
	return t
}

// colBlockOf maps every column to its block column under cpntr.
func colBlockOf(cpntr []int32, cols int) []int32 {
	colBlock := make([]int32, cols)
	for bj := 0; bj+1 < len(cpntr); bj++ {
		for c := cpntr[bj]; c < cpntr[bj+1]; c++ {
			colBlock[c] = int32(bj)
		}
	}
	return colBlock
}

// VBRStats prices a candidate partition exactly, without constructing the
// format: Stored counts every scalar of the dense blocks the partition
// induces (a block is stored iff any of its positions is nonzero, and
// then stored fully), Blocks counts those blocks, and Bytes is the full
// VBR footprint
//
//	stored*valSize + 4*(len(rpntr)+len(cpntr)+len(browPtr)+len(bcolInd)+len(valPtr)).
//
// It returns an error if the partition does not validate against p.
func VBRStats(p *mat.Pattern, pt VBRPartition, valSize int) (Stats, error) {
	if err := pt.Validate(p.Rows, p.Cols); err != nil {
		return Stats{}, err
	}
	return vbrStats(p, pt, valSize), nil
}

// vbrStats is VBRStats of a partition known to be valid.
func vbrStats(p *mat.Pattern, pt VBRPartition, valSize int) Stats {
	nbr := len(pt.Rpntr) - 1
	nbc := len(pt.Cpntr) - 1
	colBlock := colBlockOf(pt.Cpntr, p.Cols)
	seen := unmarked(nbc)
	st := Stats{BlockRows: nbr, BlockCols: nbc}
	for bi := 0; bi < nbr; bi++ {
		var width, dist int64
		for r := pt.Rpntr[bi]; r < pt.Rpntr[bi+1]; r++ {
			d, w := markBlocks(p.RowCols(int(r)), colBlock, pt.Cpntr, seen, int32(bi))
			dist += d
			width += w
		}
		h := int64(pt.Rpntr[bi+1] - pt.Rpntr[bi])
		st.Stored += h * width
		st.Blocks += dist
	}
	st.Bytes = st.Stored*int64(valSize) +
		int64(nbr+1)*4 + int64(nbc+1)*4 + // rpntr, cpntr
		int64(nbr+1)*4 + // browPtr
		st.Blocks*4 + (st.Blocks+1)*4 // bcolInd, valPtr
	return st
}

// unmarked returns n epoch markers, none set.
func unmarked(n int) []int32 {
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	return seen
}

// markBlocks adds the block columns a sorted column list touches to the
// set whose members carry mark in seen, and returns how many it added and
// their summed width.
func markBlocks(cols, colBlock, cpntr, seen []int32, mark int32) (dist, width int64) {
	prev := int32(-1)
	for _, c := range cols {
		bj := colBlock[c]
		if bj == prev {
			continue
		}
		prev = bj
		if seen[bj] != mark {
			seen[bj] = mark
			dist++
			width += int64(cpntr[bj+1] - cpntr[bj])
		}
	}
	return dist, width
}

// VBRStreamBytes is VBRStats reduced to the byte objective.
func VBRStreamBytes(p *mat.Pattern, pt VBRPartition, valSize int) (int64, error) {
	st, err := VBRStats(p, pt, valSize)
	return st.Bytes, err
}

// PricedVBR is a VBR partition with its exact price: Stats is what
// VBRStats returns for Partition.
type PricedVBR struct {
	Partition VBRPartition
	Stats     Stats
}

// PriceVBR prices both VBR partitions of p in one pass: the run-detection
// partition Identity(p) and the aggregated partition AggregateVBR
// returns. It transposes p once and finds the row and column atoms once;
// they are the identity partition, whose price is the baseline the
// aggregation must beat. Aggregation then follows Ahrens & Boman: the row
// DP against the identity columns and, only when the column DP moves a
// boundary, the row DP against the aggregated columns. A candidate equal
// to one already priced is not priced again, and the cheapest candidate
// wins, the earlier on a tie (identity, rows only, rows×columns), so the
// aggregated partition never prices worse than the identity.
func PriceVBR(p *mat.Pattern, valSize int) (identity, aggregate PricedVBR) {
	t := Transpose(p)
	id := VBRPartition{Rpntr: boundsByPattern(p), Cpntr: boundsByPattern(t)}
	identity = PricedVBR{Partition: id, Stats: vbrStats(p, id, valSize)}
	if p.Rows == 0 || p.Cols == 0 || p.NNZ() == 0 {
		return identity, identity
	}
	aggregate = identity
	consider := func(pt VBRPartition) {
		if st := vbrStats(p, pt, valSize); st.Bytes < aggregate.Stats.Bytes {
			aggregate = PricedVBR{Partition: pt, Stats: st}
		}
	}
	if rows := aggregateRows(p, id.Rpntr, id.Cpntr, valSize); !equalInt32(rows, id.Rpntr) {
		consider(VBRPartition{Rpntr: rows, Cpntr: id.Cpntr})
	}
	if cols := aggregateCols(t, id.Cpntr, valSize); !equalInt32(cols, id.Cpntr) {
		consider(VBRPartition{Rpntr: aggregateRows(p, id.Rpntr, cols, valSize), Cpntr: cols})
	}
	return identity, aggregate
}

// AggregateVBR returns the Ahrens & Boman aggregation of PriceVBR:
// columns first (a one-dimensional DP over identical-pattern column
// atoms with a per-row-touch cost), then rows against the chosen column
// partition (exact group costs), each minimizing the modeled stream
// bytes. The result is never worse than Identity(p): the identity
// partition and the row DP against the identity columns are priced
// exactly alongside the aggregated candidate, and the cheapest wins.
func AggregateVBR(p *mat.Pattern, valSize int) VBRPartition {
	_, aggregate := PriceVBR(p, valSize)
	return aggregate.Partition
}

// aggregateRows runs the forward DP over the identical-pattern row atoms
// at (the identity row boundaries) for a fixed column partition. The
// cost of a block row grouping atoms [a..b) is exact:
//
//	h * W * valSize  +  D * (bcolInd + valPtr)  +  (rpntr + browPtr)
//
// where h is the group height, D the number of distinct block columns its
// rows touch and W their total width — precisely this group's
// contribution to VBRStats. The partition-independent "+1" array entries
// cancel when comparing partitions, so minimizing the DP sum minimizes
// the exact footprint over all partitions refining the atom boundaries;
// the identity partition (every atom its own block row) is in that space,
// so the result is never worse than the heuristic for this cpntr.
//
// A start a stops extending once it can be no later end's parent. W and D
// only grow with the end, so every end e left in the window costs at
// least h(a,e)·W·valSize + 8·D + 8 from a. The atoms from a to e as
// singleton block rows cost single[e] − single[a], which bounds the final
// opt[e] − opt[a]; once the lower bound exceeds that for every such e,
// start a prices above each end's optimum. The strict < of the relaxation
// keeps the earliest minimal start, which a start above the optimum never
// is, so the partition is the one the unpruned DP returns.
func aggregateRows(p *mat.Pattern, at, cpntr []int32, valSize int) []int32 {
	n := len(at) - 1 // number of atoms
	if n <= 1 {
		return at
	}
	colBlock := colBlockOf(cpntr, p.Cols)
	vs := int64(valSize)
	// single[i] is the cost of atoms [0, i) as singleton block rows.
	seen := unmarked(len(cpntr) - 1)
	single := make([]int64, n+1)
	for i := 0; i < n; i++ {
		dist, width := markBlocks(p.RowCols(int(at[i])), colBlock, cpntr, seen, int32(i))
		single[i+1] = single[i] + int64(at[i+1]-at[i])*width*vs + dist*vbrBlockBytes + vbrBlockRowBytes
	}

	seen = unmarked(len(cpntr) - 1)
	const inf = int64(1) << 62
	opt := make([]int64, n+1)
	parent := make([]int32, n+1)
	for i := 1; i <= n; i++ {
		opt[i] = inf
	}
	for a := 0; a < n; a++ {
		var width, dist int64
		limit := min(a+MaxMerge, n)
		for b := a + 1; b <= limit; b++ {
			// Extend the running block-column union with atom b-1's
			// pattern (all rows of an atom share it; the first suffices).
			d, w := markBlocks(p.RowCols(int(at[b-1])), colBlock, cpntr, seen, int32(a))
			dist += d
			width += w
			fixed := dist*vbrBlockBytes + vbrBlockRowBytes
			if cost := opt[a] + int64(at[b]-at[a])*width*vs + fixed; cost < opt[b] {
				opt[b] = cost
				parent[b] = int32(a)
			}
			if aboveSingletons(at, single, a, b, limit, width*vs, fixed) {
				break
			}
		}
	}
	return reconstruct(at, parent, n)
}

// aggregateCols runs the same DP over the identical-pattern column atoms
// at of the transpose t. Without a fixed row partition the exact block
// count is unknown, so the cost charges each (row, block column)
// incidence as one block — the unit-row-partition upper bound:
//
//	T * (w * valSize + bcolInd + valPtr)  +  cpntr
//
// where T is the number of distinct rows touching the group and w its
// width. The final exact pricing in PriceVBR keeps this phase honest. A
// start stops early as in aggregateRows: T only grows with the end, so
// every end e left costs at least T·(w(a,e)·valSize + 8) + 4.
func aggregateCols(t *mat.Pattern, at []int32, valSize int) []int32 {
	n := len(at) - 1
	if n <= 1 {
		return at
	}
	vs := int64(valSize)
	// single[i] is the cost of atoms [0, i) as singleton block columns;
	// an atom's pattern lists each row touching it once.
	single := make([]int64, n+1)
	for i := 0; i < n; i++ {
		touch := int64(len(t.RowCols(int(at[i]))))
		single[i+1] = single[i] + touch*(int64(at[i+1]-at[i])*vs+vbrBlockBytes) + vbrBlockColBytes
	}

	seen := unmarked(t.Cols)
	const inf = int64(1) << 62
	opt := make([]int64, n+1)
	parent := make([]int32, n+1)
	for i := 1; i <= n; i++ {
		opt[i] = inf
	}
	for a := 0; a < n; a++ {
		var touch int64
		limit := min(a+MaxMerge, n)
		for b := a + 1; b <= limit; b++ {
			for _, r := range t.RowCols(int(at[b-1])) {
				if seen[r] != int32(a) {
					seen[r] = int32(a)
					touch++
				}
			}
			fixed := touch*vbrBlockBytes + vbrBlockColBytes
			if cost := opt[a] + touch*int64(at[b]-at[a])*vs + fixed; cost < opt[b] {
				opt[b] = cost
				parent[b] = int32(a)
			}
			if aboveSingletons(at, single, a, b, limit, touch*vs, fixed) {
				break
			}
		}
	}
	return reconstruct(at, parent, n)
}

// aboveSingletons reports whether DP start a, extended to end b, can be
// the parent of no end in (b, limit]: for each such e the lower bound
// slope*(at[e]-at[a]) + fixed on its group cost exceeds single[e] -
// single[a], the cost of the atoms from a to e as singleton groups.
func aboveSingletons(at []int32, single []int64, a, b, limit int, slope, fixed int64) bool {
	for e := b + 1; e <= limit; e++ {
		if slope*int64(at[e]-at[a])+fixed <= single[e]-single[a] {
			return false
		}
	}
	return true
}

// reconstruct walks the DP parent chain from atom n back to 0 and returns
// the chosen boundaries in ascending order.
func reconstruct(at []int32, parent []int32, n int) []int32 {
	var rev []int32
	for b := n; b > 0; b = int(parent[b]) {
		rev = append(rev, at[b])
	}
	out := make([]int32, 0, len(rev)+1)
	out = append(out, 0)
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
