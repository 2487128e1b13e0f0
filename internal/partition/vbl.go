package partition

import "blockspmv/internal/mat"

// VBLMaxSpan is the largest block span the narrow 1D-VBL layout can
// represent: block sizes are stored in one byte (vbl.MaxBlockLen; the two
// constants are asserted equal in the conformance suite, since this
// package must not import the format).
const VBLMaxSpan = 255

// vblBlockBytes is the per-block index overhead of narrow 1D-VBL: a
// 4-byte starting column plus a 1-byte size.
const vblBlockBytes = 5

// VBLMerges reports whether the 1D-VBL DP can merge runs at this scalar
// size: only when a one-column gap's fill costs no more than the block
// header it saves. Otherwise the DP's blocks are the runs.
func VBLMerges(valSize int) bool { return valSize <= vblBlockBytes }

// VBLRowBlocks partitions one row's sorted column list into 1D-VBL blocks
// minimizing the row's stream bytes, and yields each block in column
// order as (start, span). A block spanning [start, start+span) stores
// span scalars (zero fill where the row has no entry) plus vblBlockBytes
// of indices, so merging two runs across a gap g trades g*valSize value
// bytes against vblBlockBytes of saved indices — profitable only for
// small scalars (float32, g = 1). The dynamic program runs over the
// maximal runs (pre-split at VBLMaxSpan), which include the run-detection
// solution, so the result is never worse than the heuristic. When
// valSize > vblBlockBytes every merge costs more than it saves (g ≥ 1),
// so the runs are the unique optimum: they are yielded without the DP.
func VBLRowBlocks(cols []int32, valSize int, yield func(start int32, span int32)) {
	if len(cols) == 0 {
		return
	}
	// Atom boundaries: maximal consecutive runs, split at VBLMaxSpan.
	type atom struct{ s, e int32 } // covers columns [s, e)
	var ats []atom
	for i := 0; i < len(cols); {
		j := i + 1
		for j < len(cols) && cols[j] == cols[j-1]+1 {
			j++
		}
		for off := i; off < j; off += VBLMaxSpan {
			n := min(j-off, VBLMaxSpan)
			ats = append(ats, atom{s: cols[off], e: cols[off] + int32(n)})
		}
		i = j
	}
	if !VBLMerges(valSize) {
		for _, a := range ats {
			yield(a.s, a.e-a.s)
		}
		return
	}
	n := len(ats)
	const inf = int64(1) << 62
	opt := make([]int64, n+1)
	parent := make([]int32, n+1)
	for i := 1; i <= n; i++ {
		opt[i] = inf
	}
	for j := 1; j <= n; j++ {
		// A block may cover atoms [i..j) as long as its span fits a byte.
		for i := j - 1; i >= 0; i-- {
			span := int64(ats[j-1].e - ats[i].s)
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
	// Reconstruct and emit left to right.
	var rev []int32
	for j := int32(n); j > 0; j = parent[j] {
		rev = append(rev, j)
	}
	start := int32(0)
	for i := len(rev) - 1; i >= 0; i-- {
		j := rev[i]
		yield(ats[start].s, ats[j-1].e-ats[start].s)
		start = j
	}
}

// VBLStats prices the narrow 1D-VBL layout of p without constructing it:
// with dp = false the run-detection heuristic's blocks, with dp = true
// the per-row DP of VBLRowBlocks. Bytes covers every array of the built
// instance — val, the two (rows+1)-entry 4-byte pointer arrays (rowPtr
// and the rowBlk seed index) and vblBlockBytes per block — matching
// vbl.Matrix.MatrixBytes exactly. When valSize > vblBlockBytes the DP
// returns the runs (see VBLRowBlocks), so dp = true prices them without
// running it.
func VBLStats(p *mat.Pattern, valSize int, dp bool) Stats {
	dp = dp && VBLMerges(valSize)
	var st Stats
	for r := 0; r < p.Rows; r++ {
		cols := p.RowCols(r)
		if dp {
			VBLRowBlocks(cols, valSize, func(start, span int32) {
				st.Blocks++
				st.Stored += int64(span)
			})
			continue
		}
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
	st.Bytes = st.Stored*int64(valSize) + int64(p.Rows+1)*8 + st.Blocks*vblBlockBytes
	return st
}
