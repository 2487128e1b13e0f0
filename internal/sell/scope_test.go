package sell

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"blockspmv/internal/reorder"
	"blockspmv/internal/suite"
	"blockspmv/internal/testmat"
)

// stableScopePerm is the comparison-sort σ-permutation scopePerm's
// counting sort replaced: every sorting scope stably sorted by
// descending length with sort.SliceStable.
func stableScopePerm(lens []int, chunk, sigma int) (reorder.Permutation, int) {
	rows := len(lens)
	perm := make(reorder.Permutation, rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	scope := chunk
	if sigma != 1 {
		s := sigma
		if s <= 0 || s > rows {
			s = rows
		}
		if s > 1 {
			scope = (s + chunk - 1) / chunk * chunk
			for w0 := 0; w0 < rows; w0 += scope {
				w1 := min(w0+scope, rows)
				win := perm[w0:w1]
				sort.SliceStable(win, func(a, b int) bool { return lens[win[a]] > lens[win[b]] })
			}
		}
	}
	return perm, scope
}

// TestScopePermMatchesStableSort checks that the counting sort yields
// the permutation and scope of the stable comparison sort, for every
// chunk height of the candidate space and scopes from one slice to the
// whole matrix.
func TestScopePermMatchesStableSort(t *testing.T) {
	inputs := map[string][]int{
		"empty":    {},
		"one":      {5},
		"allequal": slices.Repeat([]int{3}, 50),
		"powerlaw": suite.PowerLaw[float64](3000, 8, 1.8, 1).RowLengths(),
	}
	for name, m := range testmat.Corpus[float64]() {
		inputs["corpus-"+name] = m.RowLengths()
	}
	for name, lens := range inputs {
		for _, chunk := range []int{4, 8, 32} {
			for _, sigma := range []int{1, chunk, 3*chunk - 1, len(lens), 0} {
				got, gotScope := scopePerm(lens, chunk, sigma)
				want, wantScope := stableScopePerm(lens, chunk, sigma)
				what := fmt.Sprintf("%s C=%d σ=%d", name, chunk, sigma)
				if gotScope != wantScope {
					t.Errorf("%s: scope %d, want %d", what, gotScope, wantScope)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s: permutation differs from the stable sort", what)
				}
			}
		}
	}
}
