package partition

import (
	"testing"

	"blockspmv/internal/mat"
)

// fuzzPattern decodes a sparsity pattern from fuzz bytes: dims from the
// first bytes, then one bit per cell.
func fuzzPattern(data []byte) *mat.Pattern {
	if len(data) < 2 {
		return &mat.Pattern{RowPtr: []int32{0}}
	}
	rows := int(data[0]%32) + 1
	cols := int(data[1]%32) + 1
	data = data[2:]
	p := &mat.Pattern{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	bit := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			byteIdx := bit / 8
			if byteIdx < len(data) && data[byteIdx]&(1<<(bit%8)) != 0 {
				p.ColInd = append(p.ColInd, int32(c))
			}
			bit++
		}
		p.RowPtr[r+1] = int32(len(p.ColInd))
	}
	return p
}

// fuzzBounds decodes a candidate boundary array over [0, n] from fuzz
// bytes — deliberately unvalidated, so Validate sees hostile input.
func fuzzBounds(data []byte, n int) []int32 {
	b := make([]int32, 0, len(data)+2)
	for _, d := range data {
		b = append(b, int32(int(d)%(n+3)-1)) // may be negative or > n
	}
	b = append(b, 0, int32(n)) // usually, but not always, well-formed ends
	return b
}

// FuzzVBRPartition drives the partition objective with arbitrary
// row/col pointer candidate arrays: Validate must catch every malformed
// partition (VBRStats returns an error, never panics or miscounts), and
// the DP aggregation must always emit monotone, in-range boundaries
// whose priced footprint is never worse than the identity heuristic's,
// and agree with the unpruned oracle (checkAgainstOracle).
func FuzzVBRPartition(f *testing.F) {
	f.Add([]byte{8, 8, 0xAB, 0xCD, 0xEF, 0x01}, []byte{2, 5}, []byte{3})
	f.Add([]byte{1, 1, 0xFF}, []byte{}, []byte{})
	f.Add([]byte{16, 4, 0x00, 0x12}, []byte{1, 2, 3, 200}, []byte{9, 9})
	f.Fuzz(func(t *testing.T, patBytes, rowBytes, colBytes []byte) {
		p := fuzzPattern(patBytes)
		pt := VBRPartition{
			Rpntr: fuzzBounds(rowBytes, p.Rows),
			Cpntr: fuzzBounds(colBytes, p.Cols),
		}
		st, err := VBRStats(p, pt, 8)
		if err == nil {
			if st.Stored < int64(p.NNZ()) {
				t.Fatalf("valid partition stored %d < nnz %d", st.Stored, p.NNZ())
			}
			if st.Bytes <= 0 {
				t.Fatalf("valid partition priced %d bytes", st.Bytes)
			}
		}

		for _, valSize := range []int{4, 8} {
			dp := AggregateVBR(p, valSize)
			if err := dp.Validate(p.Rows, p.Cols); err != nil {
				t.Fatalf("AggregateVBR emitted invalid partition: %v", err)
			}
			id := Identity(p)
			if err := id.Validate(p.Rows, p.Cols); err != nil {
				t.Fatalf("Identity emitted invalid partition: %v", err)
			}
			dpBytes, err := VBRStreamBytes(p, dp, valSize)
			if err != nil {
				t.Fatal(err)
			}
			idBytes, err := VBRStreamBytes(p, id, valSize)
			if err != nil {
				t.Fatal(err)
			}
			if dpBytes > idBytes {
				t.Fatalf("valSize %d: DP priced %d bytes > identity %d", valSize, dpBytes, idBytes)
			}
			checkAgainstOracle(t, "fuzz", p, valSize)
		}
	})
}

// FuzzVBLRowBlocks checks the per-row DP on arbitrary sorted column
// lists: emitted blocks must be in order, non-overlapping, within the
// one-byte span limit, cover exactly the input columns, and never price
// worse than run detection.
func FuzzVBLRowBlocks(f *testing.F) {
	f.Add([]byte{0, 1, 2, 10, 11, 200}, 8)
	f.Add([]byte{5}, 4)
	f.Add([]byte{}, 8)
	f.Fuzz(func(t *testing.T, colBytes []byte, valSize int) {
		if valSize != 4 && valSize != 8 {
			valSize = 8
		}
		// Strictly increasing columns from arbitrary gaps.
		cols := make([]int32, 0, len(colBytes))
		c := int32(0)
		for _, g := range colBytes {
			c += int32(g%200) + 1
			cols = append(cols, c)
		}
		var got []int32
		var prevEnd int32 = -1
		var bytes int64
		bcol, bsize := VBLRowBlocks(nil, nil, cols, valSize)
		for k, start := range bcol {
			span := int32(bsize[k])
			if span <= 0 || span > VBLMaxSpan {
				t.Fatalf("block span %d out of range", span)
			}
			if start <= prevEnd {
				t.Fatalf("block at %d overlaps or precedes previous end %d", start, prevEnd)
			}
			prevEnd = start + span - 1
			for i := start; i < start+span; i++ {
				got = append(got, i)
			}
			bytes += int64(span)*int64(valSize) + 5
		}
		// Every input column must be covered.
		gi := 0
		for _, want := range cols {
			for gi < len(got) && got[gi] < want {
				gi++
			}
			if gi >= len(got) || got[gi] != want {
				t.Fatalf("column %d not covered by emitted blocks", want)
			}
		}
		// Never worse than run detection.
		var runBytes int64
		for i := 0; i < len(cols); {
			j := i + 1
			for j < len(cols) && cols[j] == cols[j-1]+1 {
				j++
			}
			run := j - i
			nBlocks := (run + VBLMaxSpan - 1) / VBLMaxSpan
			runBytes += int64(run)*int64(valSize) + int64(nBlocks)*5
			i = j
		}
		if bytes > runBytes {
			t.Fatalf("DP priced %d bytes > runs %d", bytes, runBytes)
		}
	})
}
