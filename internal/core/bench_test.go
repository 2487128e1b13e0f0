package core_test

import (
	"testing"

	"blockspmv/internal/core"
	"blockspmv/internal/mat"
	"blockspmv/internal/suite"
	"blockspmv/internal/testmat"
)

// BenchmarkEnumerateStatsAll times the construction-free pricing of the
// whole candidate space, most of what autotuning set-up costs. The
// matrices are those of the end-to-end benchmark's serve-burst workload
// (bone010: 3x3 FEM blocks, 267k nnz), churn workload (random, 134k nnz)
// and serve-http workload (power-law graph, 60k rows), where partition
// and SELL pricing cost the most.
func BenchmarkEnumerateStatsAll(b *testing.B) {
	bone, err := suite.Build[float64](16, suite.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *mat.COO[float64]
	}{
		{"bone010", bone},
		{"random4096", testmat.Random[float64](4096, 4096, 0.008, 1)},
		{"powerlaw60000", suite.PowerLaw[float64](60000, 8, 1.8, 1)},
	} {
		p := mat.PatternOf(tc.m)
		b.Run(tc.name, func(b *testing.B) {
			for b.Loop() {
				core.EnumerateStatsAll(p, 8)
			}
		})
	}
}
