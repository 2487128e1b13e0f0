package partition_test

import (
	"testing"

	"blockspmv/internal/mat"
	"blockspmv/internal/partition"
	"blockspmv/internal/suite"
	"blockspmv/internal/testmat"
)

// BenchmarkAggregateVBR times the VBR aggregation vbr.NewDP runs, on the
// end-to-end benchmark's serve-http graph (power-law, 60k rows), where
// partition pricing costs the most, and on its churn matrix (random,
// 134k nnz).
func BenchmarkAggregateVBR(b *testing.B) {
	for _, tc := range []struct {
		name string
		m    *mat.COO[float64]
	}{
		{"powerlaw60000", suite.PowerLaw[float64](60000, 8, 1.8, 1)},
		{"random4096", testmat.Random[float64](4096, 4096, 0.008, 1)},
	} {
		p := mat.PatternOf(tc.m)
		b.Run(tc.name, func(b *testing.B) {
			for b.Loop() {
				partition.AggregateVBR(p, 8)
			}
		})
	}
}
