package partition

import (
	"testing"

	"blockspmv/internal/mat"
)

// The unpruned aggregation below is the oracle the shared pass is checked
// against: it prices all three candidate partitions from scratch, and
// each DP start extends over the whole merge window.

// oracleAggregateVBR runs the column DP, the row DP against the identity
// columns and against the column DP's, and keeps the cheapest of the
// three and the identity partition by VBRStreamBytes, first on a tie.
func oracleAggregateVBR(p *mat.Pattern, valSize int) VBRPartition {
	id := Identity(p)
	if p.Rows == 0 || p.Cols == 0 || p.NNZ() == 0 {
		return id
	}
	t := Transpose(p)
	cDP := oracleAggregateCols(p, t, valSize)

	candidates := []VBRPartition{
		id,
		{Rpntr: oracleAggregateRows(p, id.Cpntr, valSize), Cpntr: id.Cpntr},
		{Rpntr: oracleAggregateRows(p, cDP, valSize), Cpntr: cDP},
	}
	best := candidates[0]
	bestBytes := int64(-1)
	for _, cand := range candidates {
		b, err := VBRStreamBytes(p, cand, valSize)
		if err != nil {
			panic("partition: internal candidate failed validation: " + err.Error())
		}
		if bestBytes < 0 || b < bestBytes {
			best, bestBytes = cand, b
		}
	}
	return best
}

// oracleAggregateRows is the row DP over every start and every end of
// its window.
func oracleAggregateRows(p *mat.Pattern, cpntr []int32, valSize int) []int32 {
	at := boundsByPattern(p)
	n := len(at) - 1
	if n <= 1 {
		return at
	}
	nbc := len(cpntr) - 1
	colBlock := colBlockOf(cpntr, p.Cols)
	seen := make([]int32, nbc)
	for i := range seen {
		seen[i] = -1
	}

	const inf = int64(1) << 62
	opt := make([]int64, n+1)
	parent := make([]int32, n+1)
	for i := 1; i <= n; i++ {
		opt[i] = inf
	}
	for a := 0; a < n; a++ {
		if opt[a] == inf {
			continue
		}
		var width, dist int64
		limit := min(a+MaxMerge, n)
		for b := a + 1; b <= limit; b++ {
			prev := int32(-1)
			for _, c := range p.RowCols(int(at[b-1])) {
				bj := colBlock[c]
				if bj == prev {
					continue
				}
				prev = bj
				if seen[bj] != int32(a) {
					seen[bj] = int32(a)
					dist++
					width += int64(cpntr[bj+1] - cpntr[bj])
				}
			}
			h := int64(at[b] - at[a])
			cost := opt[a] + h*width*int64(valSize) + dist*vbrBlockBytes + vbrBlockRowBytes
			if cost < opt[b] {
				opt[b] = cost
				parent[b] = int32(a)
			}
		}
	}
	return reconstruct(at, parent, n)
}

// oracleAggregateCols is the column DP over every start and every end of
// its window.
func oracleAggregateCols(p, t *mat.Pattern, valSize int) []int32 {
	at := boundsByPattern(t)
	n := len(at) - 1
	if n <= 1 {
		return at
	}
	seen := make([]int32, p.Rows)
	for i := range seen {
		seen[i] = -1
	}

	const inf = int64(1) << 62
	opt := make([]int64, n+1)
	parent := make([]int32, n+1)
	for i := 1; i <= n; i++ {
		opt[i] = inf
	}
	for a := 0; a < n; a++ {
		if opt[a] == inf {
			continue
		}
		var touch int64
		limit := min(a+MaxMerge, n)
		for b := a + 1; b <= limit; b++ {
			for _, r := range t.RowCols(int(at[b-1])) {
				if seen[r] != int32(a) {
					seen[r] = int32(a)
					touch++
				}
			}
			w := int64(at[b] - at[a])
			cost := opt[a] + touch*(w*int64(valSize)+vbrBlockBytes) + vbrBlockColBytes
			if cost < opt[b] {
				opt[b] = cost
				parent[b] = int32(a)
			}
		}
	}
	return reconstruct(at, parent, n)
}

// CheckAgainstOracle exports checkAgainstOracle to the external tests.
var CheckAgainstOracle = checkAgainstOracle

// checkAgainstOracle fails t unless the shared pass agrees with the
// oracle on p: PriceVBR's aggregated partition is oracleAggregateVBR's,
// and its two Stats are VBRStats of Identity(p) and of that partition.
func checkAgainstOracle(t testing.TB, name string, p *mat.Pattern, valSize int) {
	t.Helper()
	want := oracleAggregateVBR(p, valSize)
	identity, aggregate := PriceVBR(p, valSize)
	if !equalPartitions(aggregate.Partition, want) {
		t.Errorf("%s valSize %d: aggregated %v, oracle %v", name, valSize, aggregate.Partition, want)
	}
	id := Identity(p)
	if !equalPartitions(identity.Partition, id) {
		t.Errorf("%s valSize %d: identity %v, want %v", name, valSize, identity.Partition, id)
	}
	for _, c := range []struct {
		what string
		got  Stats
		pt   VBRPartition
	}{{"identity", identity.Stats, id}, {"aggregate", aggregate.Stats, want}} {
		st, err := VBRStats(p, c.pt, valSize)
		if err != nil {
			t.Fatalf("%s valSize %d: %s: %v", name, valSize, c.what, err)
		}
		if c.got != st {
			t.Errorf("%s valSize %d: %s priced %+v, VBRStats %+v", name, valSize, c.what, c.got, st)
		}
	}
}

func equalPartitions(a, b VBRPartition) bool {
	return equalInt32(a.Rpntr, b.Rpntr) && equalInt32(a.Cpntr, b.Cpntr)
}
