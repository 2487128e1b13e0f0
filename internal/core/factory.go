package core

import (
	"fmt"

	"blockspmv/internal/bcsd"
	"blockspmv/internal/bcsr"
	"blockspmv/internal/csr"
	"blockspmv/internal/csrdu"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/idx"
	"blockspmv/internal/machine"
	"blockspmv/internal/mat"
	"blockspmv/internal/profile"
	"blockspmv/internal/sell"
	"blockspmv/internal/vbl"
	"blockspmv/internal/vbr"
)

// Instantiate constructs the storage format a candidate describes for the
// given matrix. The experiment harness uses it to time the candidates the
// models rank. Candidates with a narrow index width must match the width
// the matrix admits (idx.FitsCols), which is how CandidatesCompressed
// produces them; the compact constructors then select that same width.
func Instantiate[T floats.Float](m *mat.COO[T], c Candidate) formats.Instance[T] {
	switch c.Method {
	case CSRDU:
		return csrdu.New(m, c.Impl)
	case VBR:
		if c.Part == PartDP {
			return vbr.NewDP(m, c.Impl)
		}
		return vbr.New(m, c.Impl)
	case VBL:
		if c.Part == PartDP {
			return vbl.NewDP(m, c.Impl)
		}
		return vbl.New(m, c.Impl)
	}
	if c.Width != idx.W32 {
		if w := idx.FitsCols(m.Cols()); w != c.Width {
			panic(fmt.Sprintf("core: cannot instantiate %v: matrix of %d columns requires %v", c, m.Cols(), w))
		}
		switch c.Method {
		case CSR:
			return csr.NewCompact(m, c.Impl)
		case SELL:
			return sell.NewCompact(m, c.Chunk, c.Sigma, c.Impl)
		case BCSR:
			return bcsr.NewCompact(m, c.Shape.R, c.Shape.C, c.Impl)
		case BCSRDec:
			return bcsr.NewDecomposedCompact(m, c.Shape.R, c.Shape.C, c.Impl)
		case BCSD:
			return bcsd.NewCompact(m, c.Shape.R, c.Impl)
		case BCSDDec:
			return bcsd.NewDecomposedCompact(m, c.Shape.R, c.Impl)
		}
	}
	switch c.Method {
	case CSR:
		return csr.FromCOO(m, c.Impl)
	case SELL:
		return sell.New(m, c.Chunk, c.Sigma, c.Impl)
	case BCSR:
		return bcsr.New(m, c.Shape.R, c.Shape.C, c.Impl)
	case BCSRDec:
		return bcsr.NewDecomposed(m, c.Shape.R, c.Shape.C, c.Impl)
	case BCSD:
		return bcsd.New(m, c.Shape.R, c.Impl)
	case BCSDDec:
		return bcsd.NewDecomposed(m, c.Shape.R, c.Impl)
	default:
		panic(fmt.Sprintf("core: cannot instantiate %v", c))
	}
}

// Tune selects the model's fastest candidate for the finalized matrix m,
// priced for panels of rhs right-hand sides (WithRHS), and builds it. It
// never panics: enumeration (StatsOf), selection (SelectSafe) and
// construction each run under a recover backstop. When the winner will
// not build, Tune falls back to scalar CSR, which converts from any
// structurally sound matrix, and flags the prediction Degraded with the
// construction failure as its Reason. The error is non-nil only when CSR
// will not build either; the instance is then nil.
func Tune[T floats.Float](m *mat.COO[T], model Model, mach machine.Machine, prof *profile.Table, rhs int) (formats.Instance[T], Prediction, error) {
	pred := SelectSafe(model, WithRHS(StatsOf(m), rhs), mach, prof)
	inst, err := build(m, pred.Cand)
	if err == nil {
		return inst, pred, nil
	}
	pred = Prediction{Cand: baseline, Degraded: true, Reason: err.Error()}
	if inst, err = build(m, baseline); err != nil {
		return nil, Prediction{Degraded: true, Reason: err.Error()}, err
	}
	return inst, pred, nil
}

// build is Instantiate under a recover backstop.
func build[T floats.Float](m *mat.COO[T], c Candidate) (inst formats.Instance[T], err error) {
	defer func() {
		if r := recover(); r != nil {
			inst, err = nil, fmt.Errorf("core: constructing %s panicked: %v", c, r)
		}
	}()
	return Instantiate(m, c), nil
}
