// Package testmat provides small deterministic matrix generators shared by
// the test suites of the format packages. Production workloads use
// internal/suite instead; these generators favour pathological shapes
// (empty rows, edge overhang, single entries) over realism.
package testmat

import (
	"math/rand"

	"blockspmv/internal/floats"
	"blockspmv/internal/mat"
)

// Random returns a finalized rows x cols matrix where each position is
// nonzero with the given probability.
func Random[T floats.Float](rows, cols int, density float64, seed int64) *mat.COO[T] {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New[T](rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				m.Add(int32(r), int32(c), T(rng.Float64()*2-1))
			}
		}
	}
	m.Finalize()
	return m
}

// Blocky returns a finalized matrix built from dense br x bc tiles dropped
// at random aligned positions, plus scattered single entries. It exercises
// both the full-block and the remainder paths of the blocked formats.
func Blocky[T floats.Float](rows, cols, br, bc, tiles, singles int, seed int64) *mat.COO[T] {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New[T](rows, cols)
	for t := 0; t < tiles; t++ {
		r0 := rng.Intn(max(1, rows/br)) * br
		c0 := rng.Intn(max(1, cols/bc)) * bc
		for i := 0; i < br && r0+i < rows; i++ {
			for j := 0; j < bc && c0+j < cols; j++ {
				m.Add(int32(r0+i), int32(c0+j), T(rng.Float64()+0.1))
			}
		}
	}
	for s := 0; s < singles; s++ {
		m.Add(int32(rng.Intn(rows)), int32(rng.Intn(cols)), T(rng.Float64()*2-1))
	}
	m.Finalize()
	return m
}

// Diagonalish returns a finalized matrix dominated by a handful of
// (partial) diagonals, the friendly case for BCSD, plus random noise.
func Diagonalish[T floats.Float](rows, cols int, seed int64) *mat.COO[T] {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New[T](rows, cols)
	offsets := []int{0, 1, -3, 7}
	for _, off := range offsets {
		for r := 0; r < rows; r++ {
			c := r + off
			if c < 0 || c >= cols {
				continue
			}
			if rng.Float64() < 0.85 {
				m.Add(int32(r), int32(c), T(rng.Float64()+0.1))
			}
		}
	}
	for s := 0; s < rows/2; s++ {
		m.Add(int32(rng.Intn(rows)), int32(rng.Intn(cols)), T(rng.Float64()*2-1))
	}
	m.Finalize()
	return m
}

// Runs returns a finalized matrix of horizontal runs with assorted
// lengths, including runs longer than 255 to exercise 1D-VBL splitting.
func Runs[T floats.Float](rows, cols int, seed int64) *mat.COO[T] {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New[T](rows, cols)
	for r := 0; r < rows; r++ {
		c := rng.Intn(4)
		for c < cols {
			runLen := 1 + rng.Intn(12)
			if rng.Float64() < 0.02 {
				runLen = 256 + rng.Intn(128) // force block splitting
			}
			for k := 0; k < runLen && c < cols; k++ {
				m.Add(int32(r), int32(c), T(rng.Float64()+0.1))
				c++
			}
			c += 1 + rng.Intn(20)
		}
	}
	m.Finalize()
	return m
}

// Laplacian returns the block 5-point Laplacian of a side x side grid
// with dof unknowns per grid point: every stencil entry is a dense
// dof x dof block whose diagonal holds the stencil weight (4 at the grid
// point, −1 at each of its neighbours) and whose other entries hold a
// tenth of it. It is symmetric positive definite and has the pattern and
// values of the benchmark's solve workload.
func Laplacian[T floats.Float](side, dof int) *mat.COO[T] {
	n := side * side * dof
	m := mat.New[T](n, n)
	addBlock := func(p, q int, scale T) {
		for i := 0; i < dof; i++ {
			for j := 0; j < dof; j++ {
				v := scale
				if i != j {
					v *= 0.1
				}
				m.Add(int32(p*dof+i), int32(q*dof+j), v)
			}
		}
	}
	for j := 0; j < side; j++ {
		for i := 0; i < side; i++ {
			p := j*side + i
			addBlock(p, p, 4)
			if i > 0 {
				addBlock(p, p-1, -1)
			}
			if i < side-1 {
				addBlock(p, p+1, -1)
			}
			if j > 0 {
				addBlock(p, p-side, -1)
			}
			if j < side-1 {
				addBlock(p, p+side, -1)
			}
		}
	}
	m.Finalize()
	return m
}

// Corpus returns a varied set of matrices covering the structural edge
// cases every format must survive: empty, single entry, dense, tall,
// wide, ragged dimensions relative to typical block sizes.
func Corpus[T floats.Float]() map[string]*mat.COO[T] {
	empty := mat.New[T](13, 17)
	empty.Finalize()
	single := mat.New[T](9, 9)
	single.Add(8, 8, 3)
	single.Finalize()
	corner := mat.New[T](10, 10)
	corner.Add(0, 0, 1)
	corner.Add(9, 9, 2)
	corner.Add(0, 9, -1)
	corner.Add(9, 0, -2)
	corner.Finalize()
	return map[string]*mat.COO[T]{
		"empty":     empty,
		"single":    single,
		"corners":   corner,
		"dense":     mat.Dense[T](21, 19), // ragged vs every block size
		"random":    Random[T](57, 63, 0.08, 1),
		"randdense": Random[T](40, 40, 0.45, 2),
		"blocky2x3": Blocky[T](50, 60, 2, 3, 40, 30, 3),
		"blocky4x2": Blocky[T](64, 64, 4, 2, 50, 20, 4),
		"diagonal":  Diagonalish[T](80, 80, 5),
		"runs":      Runs[T](30, 700, 6),
		"tall":      Random[T](201, 23, 0.1, 7),
		"wide":      Random[T](23, 201, 0.1, 8),
		"onerow":    Runs[T](1, 500, 9),
		"onecol":    Random[T](100, 1, 0.5, 10),
		"emptyrows": Blocky[T](90, 90, 3, 2, 12, 0, 11),
		"subdiag":   Diagonalish[T](37, 31, 12),
	}
}
