package partition

import "blockspmv/internal/mat"

// VBLMaxSpan is the largest block span 1D-VBL can represent: block sizes
// are stored in one byte. vbl.MaxBlockLen is defined as this constant.
const VBLMaxSpan = 255

// vblBlockBytes is the per-block index overhead of 1D-VBL: a 4-byte
// starting column plus a 1-byte size.
const vblBlockBytes = 5

// VBLMerges reports whether the 1D-VBL DP can merge runs at this scalar
// size: only when a one-column gap's fill costs no more than the block
// header it saves. Otherwise the DP's blocks are the runs.
func VBLMerges(valSize int) bool { return valSize <= vblBlockBytes }

// VBLRuns appends the run-detection blocks of one row's sorted column
// list, in column order, to 1D-VBL's block arrays: each block's starting
// column to bcol and its size to bsize. The blocks are the row's maximal
// runs of consecutive columns, each split into VBLMaxSpan-column chunks
// (the last one shorter).
func VBLRuns(bcol []int32, bsize []uint8, cols []int32) ([]int32, []uint8) {
	for i := 0; i < len(cols); {
		j := i + 1
		for j < len(cols) && cols[j] == cols[j-1]+1 {
			j++
		}
		for ; j-i > VBLMaxSpan; i += VBLMaxSpan {
			bcol = append(bcol, cols[i])
			bsize = append(bsize, VBLMaxSpan)
		}
		bcol = append(bcol, cols[i])
		bsize = append(bsize, uint8(j-i))
		i = j
	}
	return bcol, bsize
}

// VBLRowBlocks appends the 1D-VBL blocks of one row's sorted column list
// that minimize the row's stream bytes, in column order, to the block
// arrays as VBLRuns does. A block spanning [start, start+span) stores
// span scalars (zero fill where the row has no entry) plus vblBlockBytes
// of indices, so merging two runs across a gap g trades g*valSize value
// bytes against vblBlockBytes of saved indices — profitable only for
// small scalars (float32, g = 1). The dynamic program runs over the
// blocks of VBLRuns, which are the run-detection solution, so the result
// is never worse than the heuristic. When valSize > vblBlockBytes every
// merge costs more than it saves (g ≥ 1), so the runs are the unique
// optimum: they are appended without the DP. A loop over many rows
// calls VBLScratch.RowBlocks instead, which allocates the DP's arrays
// once.
func VBLRowBlocks(bcol []int32, bsize []uint8, cols []int32, valSize int) ([]int32, []uint8) {
	var s VBLScratch
	return s.RowBlocks(bcol, bsize, cols, valSize)
}

// VBLScratch holds the per-row arrays of VBLRowBlocks' dynamic program,
// so a loop over the rows of a matrix allocates them once rather than
// five times a row. The zero value is ready to use; a VBLScratch is not
// safe for concurrent use.
type VBLScratch struct {
	starts []int32 // the row's runs: the DP's atoms
	spans  []uint8
	opt    []int64 // opt[j]: fewest bytes covering atoms [0, j)
	parent []int32 // parent[j]: first atom of the last block in opt[j]
	rev    []int32 // block ends, right to left
}

// RowBlocks is VBLRowBlocks on s's arrays.
func (s *VBLScratch) RowBlocks(bcol []int32, bsize []uint8, cols []int32, valSize int) ([]int32, []uint8) {
	if len(cols) == 0 {
		return bcol, bsize
	}
	if !VBLMerges(valSize) {
		return VBLRuns(bcol, bsize, cols)
	}
	s.starts, s.spans = VBLRuns(s.starts[:0], s.spans[:0], cols)
	starts, spans := s.starts, s.spans
	n := len(starts)
	const inf = int64(1) << 62
	if cap(s.opt) < n+1 {
		s.opt, s.parent = make([]int64, n+1), make([]int32, n+1)
	}
	opt, parent := s.opt[:n+1], s.parent[:n+1]
	opt[0] = 0
	for i := 1; i <= n; i++ {
		opt[i] = inf
	}
	for j := 1; j <= n; j++ {
		// A block may cover atoms [i..j) as long as its span fits a byte.
		end := starts[j-1] + int32(spans[j-1])
		for i := j - 1; i >= 0; i-- {
			span := int64(end - starts[i])
			if span > VBLMaxSpan {
				break
			}
			cost := opt[i] + span*int64(valSize) + vblBlockBytes
			if cost < opt[j] {
				opt[j] = cost
				parent[j] = int32(i)
			}
		}
	}
	// Reconstruct and append left to right.
	rev := s.rev[:0]
	for j := int32(n); j > 0; j = parent[j] {
		rev = append(rev, j)
	}
	s.rev = rev
	start := int32(0)
	for i := len(rev) - 1; i >= 0; i-- {
		j := rev[i]
		bcol = append(bcol, starts[start])
		bsize = append(bsize, uint8(starts[j-1]+int32(spans[j-1])-starts[start]))
		start = j
	}
	return bcol, bsize
}

// VBLStats prices the 1D-VBL layout of p without constructing it: with
// dp = false the blocks of VBLRuns, counted one maximal run at a time,
// with dp = true those of VBLRowBlocks. Bytes covers every array of the
// built instance — val, the two (rows+1)-entry 4-byte pointer arrays
// (rowPtr and the rowBlk seed index) and vblBlockBytes per block —
// matching vbl.Matrix.MatrixBytes exactly. When valSize > vblBlockBytes
// the DP returns the runs (see VBLRowBlocks), so dp = true prices them
// without running it.
func VBLStats(p *mat.Pattern, valSize int, dp bool) Stats {
	var st Stats
	if dp && VBLMerges(valSize) {
		var bcol []int32
		var bsize []uint8
		var scratch VBLScratch
		for r := 0; r < p.Rows; r++ {
			bcol, bsize = scratch.RowBlocks(bcol[:0], bsize[:0], p.RowCols(r), valSize)
			st.Blocks += int64(len(bsize))
			for _, n := range bsize {
				st.Stored += int64(n)
			}
		}
	} else {
		for r := 0; r < p.Rows; r++ {
			cols := p.RowCols(r)
			for i := 0; i < len(cols); {
				j := i + 1
				for j < len(cols) && cols[j] == cols[j-1]+1 {
					j++
				}
				run := j - i
				st.Blocks += int64((run + VBLMaxSpan - 1) / VBLMaxSpan)
				st.Stored += int64(run)
				i = j
			}
		}
	}
	st.Bytes = st.Stored*int64(valSize) + int64(p.Rows+1)*8 + st.Blocks*vblBlockBytes
	return st
}
