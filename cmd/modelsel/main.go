// Command modelsel runs the three performance models on one matrix and
// reports each model's format selection and top-ranked candidates, over
// the same candidate space Autotune selects from (core.EnumerateStatsAll).
//
// The matrix is either a suite entry (-matrix rajat31) or a Matrix Market
// file (-mtx path/to/file.mtx).
//
// Usage:
//
//	modelsel -matrix audikw_1 -scale small -top 5
//	modelsel -mtx mymatrix.mtx -precision sp
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"blockspmv/internal/core"
	"blockspmv/internal/floats"
	"blockspmv/internal/machine"
	"blockspmv/internal/mat"
	"blockspmv/internal/profile"
	"blockspmv/internal/suite"
	"blockspmv/internal/textplot"
)

func main() {
	var (
		name      = flag.String("matrix", "", "suite matrix id or name")
		mtxPath   = flag.String("mtx", "", "MatrixMarket file to analyse instead of a suite matrix")
		scaleName = flag.String("scale", "small", "suite scale: tiny, small or paper")
		precision = flag.String("precision", "dp", "element precision: sp or dp")
		topN      = flag.Int("top", 5, "ranked candidates to show per model")
		explain   = flag.Bool("explain", false, "break each model's selection into memory/compute terms")
		rhs       = flag.Int("rhs", 1, "panel width k: rank for a k-wide multi-RHS multiply (MulVecs), charging the matrix stream once and the vectors k times")
	)
	flag.Parse()
	if (*name == "") == (*mtxPath == "") {
		fmt.Fprintln(os.Stderr, "modelsel: provide exactly one of -matrix or -mtx")
		os.Exit(2)
	}
	if *rhs < 1 {
		fmt.Fprintln(os.Stderr, "modelsel: -rhs must be at least 1")
		os.Exit(2)
	}
	switch *precision {
	case "dp":
		run[float64](*name, *mtxPath, *scaleName, *topN, *explain, *rhs)
	case "sp":
		run[float32](*name, *mtxPath, *scaleName, *topN, *explain, *rhs)
	default:
		fmt.Fprintln(os.Stderr, "modelsel: -precision must be sp or dp")
		os.Exit(2)
	}
}

func run[T floats.Float](name, mtxPath, scaleName string, topN int, explain bool, rhs int) {
	m := loadMatrix[T](name, mtxPath, scaleName)
	fmt.Printf("matrix: %dx%d, %d nonzeros, %.2f MiB in CSR\n",
		m.Rows(), m.Cols(), m.NNZ(),
		float64(mat.CSRWorkingSetBytes(m.Rows(), m.NNZ(), floats.SizeOf[T]()))/(1<<20))

	fmt.Println("characterising machine (STREAM triad)...")
	mach := machine.Detect()
	fmt.Printf("machine: %s\n", mach)

	fmt.Println("profiling kernels...")
	prof := profile.Collect[T](mach, profile.Options{})

	stats := core.EnumerateStatsAll(mat.PatternOf(m), floats.SizeOf[T]())
	if rhs > 1 {
		stats = core.WithRHS(stats, rhs)
		fmt.Printf("ranking for a %d-wide panel (predicted times cover all %d right-hand sides)\n", rhs, rhs)
	}
	statOf := make(map[core.Candidate]core.CandidateStats, len(stats))
	for _, cs := range stats {
		statOf[cs.Cand] = cs
	}
	for _, model := range core.Models() {
		preds := core.Rank(model, stats, mach, prof)
		fmt.Printf("\n%s model: selected %s (predicted %.3g ms/SpMV)\n",
			model.Name(), preds[0].Cand, preds[0].Seconds*1e3)
		var rows [][]string
		for i := 0; i < topN && i < len(preds); i++ {
			rows = append(rows, []string{
				strconv.Itoa(i + 1),
				preds[i].Cand.String(),
				fmt.Sprintf("%.4g", preds[i].Seconds*1e3),
			})
		}
		textplot.Table(os.Stdout, []string{"Rank", "Candidate", "predicted ms"}, rows)
		if explain {
			fmt.Println(core.Explain(statOf[preds[0].Cand], mach, prof))
		}
	}
}

func loadMatrix[T floats.Float](name, mtxPath, scaleName string) *mat.COO[T] {
	if mtxPath != "" {
		f, err := os.Open(mtxPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		m, err := mat.ReadMatrixMarket[T](f)
		if err != nil {
			fatal(err)
		}
		return m
	}
	scale, err := suite.ParseScale(scaleName)
	if err != nil {
		fatal(err)
	}
	var info suite.Info
	if id, errAtoi := strconv.Atoi(name); errAtoi == nil {
		info, err = suite.InfoByID(id)
	} else {
		info, err = suite.InfoByName(name)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("generating %s at %s scale...\n", info.Name, scale)
	return suite.MustBuild[T](info.ID, scale)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "modelsel:", err)
	os.Exit(1)
}
