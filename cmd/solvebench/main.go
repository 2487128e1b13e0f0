// Command solvebench measures end-to-end iterative-solver scaling on the
// persistent worker pools: the same solve is repeated at each requested
// worker count, with both the SpMV and the vector kernels of every
// iteration running on the pool (SolverOptions.Workers).
//
// Usage:
//
//	solvebench [flags]
//
// Examples:
//
//	solvebench -workers 1,2,4,8
//	solvebench -solver bicgstab -side 150 -dof 2
//	solvebench -format bcsr -tol 1e-8
//
// The system is a 2D Poisson problem with dof unknowns per grid point
// (dense dof x dof node blocks, the FEM archetype that favours blocked
// formats); -format picks the storage format the solve runs on.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"blockspmv"
	"blockspmv/internal/testmat"
)

func main() {
	var (
		side       = flag.Int("side", 220, "grid side length (unknowns = side*side*dof)")
		dof        = flag.Int("dof", 3, "unknowns per grid point (dense node-block size)")
		workers    = flag.String("workers", "1,2,4", "comma-separated worker counts")
		solverName = flag.String("solver", "cg", "solver: cg, pcg or bicgstab")
		formatName = flag.String("format", "csr", "storage format: csr or bcsr (dof x dof blocks)")
		tol        = flag.Float64("tol", 1e-8, "relative residual tolerance")
		reps       = flag.Int("reps", 3, "solves per worker count; the fastest is reported")
		rhs        = flag.Int("rhs", 0, "batched multi-RHS probe: solve this many right-hand sides per worker count with one panel SpMM per iteration, against independent per-vector solves (solvers: cg, jacobi)")
	)
	flag.Parse()

	counts, err := parseInts(*workers)
	if err != nil {
		fatal(fmt.Errorf("bad -workers %q: %v", *workers, err))
	}
	if len(counts) == 0 {
		fatal(fmt.Errorf("bad -workers %q: need at least one worker count", *workers))
	}
	switch *solverName {
	case "cg", "pcg", "bicgstab":
	case "jacobi":
		if *rhs <= 0 {
			fatal(fmt.Errorf("-solver jacobi is the batched probe smoother; it needs -rhs"))
		}
	default:
		fatal(fmt.Errorf("unknown -solver %q (known: cg pcg bicgstab; jacobi with -rhs)", *solverName))
	}
	if *rhs > 0 && *solverName != "cg" && *solverName != "jacobi" {
		fatal(fmt.Errorf("-rhs batched probe supports -solver cg or jacobi, not %q", *solverName))
	}

	m := testmat.Laplacian[float64](*side, *dof)
	n := m.Rows()

	var format blockspmv.Format[float64]
	switch *formatName {
	case "csr":
		format = blockspmv.NewCSR(m, blockspmv.Scalar)
	case "bcsr":
		format = blockspmv.NewBCSR(m, *dof, *dof, blockspmv.Scalar)
	default:
		fatal(fmt.Errorf("unknown -format %q (known: csr bcsr)", *formatName))
	}
	fmt.Printf("system: %d unknowns, %d nonzeros, format %s, solver %s\n\n",
		n, m.NNZ(), format.Name(), *solverName)

	if *rhs > 0 {
		batchedProbe(format, m, counts, *solverName, *tol, *reps, *rhs)
		return
	}

	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}

	var pre *blockspmv.JacobiPreconditioner[float64]
	if *solverName == "pcg" {
		var err error
		if pre, err = blockspmv.NewJacobi(m); err != nil {
			fatal(err)
		}
	}

	var t1 float64
	for _, w := range counts {
		opts := blockspmv.SolverOptions{Tol: *tol, Workers: w}
		var best time.Duration
		var st blockspmv.SolverStats
		for rep := 0; rep < *reps; rep++ {
			x := make([]float64, n)
			start := time.Now()
			var err error
			switch *solverName {
			case "cg":
				st, err = blockspmv.SolveCG(format, b, x, opts)
			case "pcg":
				st, err = blockspmv.SolvePCG(format, pre, b, x, opts)
			case "bicgstab":
				st, err = blockspmv.SolveBiCGSTAB(format, b, x, opts)
			default:
				fatal(fmt.Errorf("unknown -solver %q (known: cg pcg bicgstab)", *solverName))
			}
			if err != nil {
				fatal(fmt.Errorf("workers=%d: %v (residual %g after %d iterations)",
					w, err, st.Residual, st.Iterations))
			}
			if elapsed := time.Since(start); rep == 0 || elapsed < best {
				best = elapsed
			}
		}
		secs := best.Seconds()
		if w == counts[0] {
			t1 = secs
		}
		fmt.Printf("workers=%d: %4d iterations, %4d SpMVs, residual %.2e, %8.1f ms  (%.3g ms/iter, speedup %.2fx)\n",
			w, st.Iterations, st.SpMVs, st.Residual, secs*1e3,
			secs*1e3/float64(st.Iterations), t1/secs)
	}
	fmt.Println("\nnote: speedups need as many free CPUs as workers; both the SpMV")
	fmt.Println("and the per-iteration vector kernels run on the worker pools.")
}

// batchedProbe compares two ways to solve k right-hand sides on the same
// matrix: a lockstep batched solve driving ONE panel SpMM (MulVecs) per
// iteration, and k independent per-vector solves through the same pool
// (MulVec). Both run on the identical persistent ParallelMul, so the only
// difference is whether the matrix stream is amortized across the panel.
func batchedProbe(format blockspmv.Format[float64], m *blockspmv.Matrix[float64],
	counts []int, solverName string, tol float64, reps, k int) {
	n := format.Rows()
	maxIter := 10 * n

	// k distinct right-hand sides (a cheap LCG keeps them deterministic
	// but linearly independent, so the column solves don't degenerate).
	b := make([][]float64, k)
	seed := uint64(0x9e3779b97f4a7c15)
	for l := range b {
		b[l] = make([]float64, n)
		for i := range b[l] {
			seed = seed*6364136223846793005 + 1442695040888963407
			b[l][i] = 1 + float64(seed>>40)/float64(1<<24)
		}
	}

	var jac *blockspmv.JacobiPreconditioner[float64]
	if solverName == "jacobi" {
		var err error
		if jac, err = blockspmv.NewJacobi(m); err != nil {
			fatal(err)
		}
		// Jacobi sweeps on a Laplacian converge very slowly; the probe
		// measures SpMM amortization, not the smoother, so cap the sweeps.
		maxIter = 200
	}

	fmt.Printf("batched probe: %d right-hand sides, solver %s\n\n", k, solverName)

	for _, w := range counts {
		pm := blockspmv.NewParallelMul(format, w)
		mulPanel := pm.MulVecs
		mulSingle := func(x, y [][]float64) error { return pm.MulVec(x[0], y[0]) }

		run := func(mul func(x, y [][]float64) error, cols [][]float64) (int, int, float64, error) {
			switch solverName {
			case "cg":
				return batchedCG(mul, cols, tol, maxIter)
			default:
				return batchedJacobi(mul, jac, cols, tol, maxIter)
			}
		}

		var bestBatch, bestInd time.Duration
		var batchIters, batchPanels, indSpMVs int
		var batchResid, indResid float64
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			it, panels, resid, err := run(mulPanel, b)
			if err != nil {
				fatal(fmt.Errorf("workers=%d batched: %v", w, err))
			}
			if elapsed := time.Since(start); rep == 0 || elapsed < bestBatch {
				bestBatch, batchIters, batchPanels, batchResid = elapsed, it, panels, resid
			}

			start = time.Now()
			var spmvs int
			var worst float64
			for l := 0; l < k; l++ {
				_, s, resid, err := run(mulSingle, b[l:l+1])
				if err != nil {
					fatal(fmt.Errorf("workers=%d independent rhs %d: %v", w, l, err))
				}
				spmvs += s
				if resid > worst {
					worst = resid
				}
			}
			if elapsed := time.Since(start); rep == 0 || elapsed < bestInd {
				bestInd, indSpMVs, indResid = elapsed, spmvs, worst
			}
		}

		fmt.Printf("workers=%d: panel %4d iters %4d SpMMs resid %.2e %8.1f ms | independent %4d SpMVs resid %.2e %8.1f ms | speedup %.2fx\n",
			w, batchIters, batchPanels, batchResid, bestBatch.Seconds()*1e3,
			indSpMVs, indResid, bestInd.Seconds()*1e3,
			bestInd.Seconds()/bestBatch.Seconds())
		pm.Close()
	}
	fmt.Println("\nnote: the batched solve runs all columns in lockstep, so its SpMM")
	fmt.Println("count is the slowest column's iteration count; the amortization win")
	fmt.Println("is one matrix stream per panel instead of one per right-hand side.")
}

// batchedCG runs conjugate gradients on all columns in lockstep: every
// iteration issues one panel multiply covering the whole panel, and each
// column applies its own alpha/beta scalar recurrences. Columns that
// converge freeze their updates but stay in the panel (their directions
// keep multiplying — the cost of lockstep) until every column is done.
// Per column the arithmetic is exactly serial CG, so iteration counts
// match the independent solves.
func batchedCG(mul func(x, y [][]float64) error, b [][]float64, tol float64, maxIter int) (iters, panels int, maxResid float64, err error) {
	k := len(b)
	n := len(b[0])
	x := makePanel(k, n)
	r := makePanel(k, n)
	p := makePanel(k, n)
	q := makePanel(k, n)

	rz := make([]float64, k)
	normb := make([]float64, k)
	active := make([]bool, k)
	remaining := k
	for l := 0; l < k; l++ {
		copy(r[l], b[l]) // x starts at zero, so r = b
		copy(p[l], b[l])
		rz[l] = dot(r[l], r[l])
		normb[l] = sqrt(rz[l])
		if normb[l] == 0 || sqrt(rz[l]) <= tol*normb[l] {
			remaining--
			continue
		}
		active[l] = true
	}

	for iters = 0; remaining > 0 && iters < maxIter; iters++ {
		if err := mul(p, q); err != nil {
			return iters, panels, 0, err
		}
		panels++
		for l := 0; l < k; l++ {
			if !active[l] {
				continue
			}
			alpha := rz[l] / dot(p[l], q[l])
			axpy(alpha, p[l], x[l])
			axpy(-alpha, q[l], r[l])
			rzNew := dot(r[l], r[l])
			if sqrt(rzNew) <= tol*normb[l] {
				active[l] = false
				remaining--
				rz[l] = rzNew
				continue
			}
			beta := rzNew / rz[l]
			for i := range p[l] {
				p[l][i] = r[l][i] + beta*p[l][i]
			}
			rz[l] = rzNew
		}
	}
	for l := 0; l < k; l++ {
		if nb := normb[l]; nb > 0 {
			if rel := sqrt(rz[l]) / nb; rel > maxResid {
				maxResid = rel
			}
		}
	}
	if remaining > 0 {
		return iters, panels, maxResid, fmt.Errorf("batched CG: %d of %d columns unconverged after %d iterations", remaining, k, maxIter)
	}
	return iters, panels, maxResid, nil
}

// batchedJacobi runs weighted Jacobi sweeps x += w D^-1 (b - A x), w=2/3,
// on all columns at once; every sweep is one panel multiply. The damping
// keeps the sweep contractive on the block Laplacian, which is not
// diagonally dominant. Unlike CG the per-column iteration counts are
// identical by construction, so the probe isolates the SpMM amortization
// with no lockstep waste. Convergence to tol is not expected within the
// sweep cap — the residual is reported.
func batchedJacobi(mul func(x, y [][]float64) error, jac *blockspmv.JacobiPreconditioner[float64], b [][]float64, tol float64, maxSweeps int) (iters, panels int, maxResid float64, err error) {
	k := len(b)
	n := len(b[0])
	x := makePanel(k, n)
	q := makePanel(k, n)
	r := make([]float64, n)
	z := make([]float64, n)

	normb := make([]float64, k)
	for l := 0; l < k; l++ {
		normb[l] = sqrt(dot(b[l], b[l]))
	}

	for iters = 0; iters < maxSweeps; iters++ {
		if err := mul(x, q); err != nil {
			return iters, panels, 0, err
		}
		panels++
		maxResid = 0
		for l := 0; l < k; l++ {
			for i := range r {
				r[i] = b[l][i] - q[l][i]
			}
			jac.Apply(r, z)
			axpy(2.0/3, z, x[l])
			if nb := normb[l]; nb > 0 {
				if rel := sqrt(dot(r, r)) / nb; rel > maxResid {
					maxResid = rel
				}
			}
		}
		if maxResid <= tol {
			return iters + 1, panels, maxResid, nil
		}
	}
	return iters, panels, maxResid, nil
}

func makePanel(k, n int) [][]float64 {
	p := make([][]float64, k)
	for l := range p {
		p[l] = make([]float64, n)
	}
	return p
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

func sqrt(v float64) float64 { return math.Sqrt(v) }

func parseInts(csv string) ([]int, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "solvebench:", err)
	os.Exit(1)
}
