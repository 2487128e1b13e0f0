package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"blockspmv/internal/core"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/overlay"
	"blockspmv/internal/parallel"
	"blockspmv/internal/server"
)

// budget is how long each out-of-band timing repeats its call.
func (r *runner) budget() time.Duration {
	if r.cfg.tiny {
		return 5 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// probe takes the per-layer numbers a single request cannot show, on the
// workload's own matrix, after the measured window: the set-up split into
// the public calls registration makes (PatternOf, EnumerateStatsAll,
// WithRHS, SelectSafe, Instantiate), the model's accuracy and regret, and
// kernel, wire and overlay microtimings. rhs is the panel width the
// workload prices selection at. It runs in the traced run only, after the
// workload's servers have stopped.
func (r *runner) probe(m *mat.COO[float64], rhs int) error {
	r.tr.setPhase("probe")
	root := r.tr.root("probe", "loadgen")
	defer root.end()
	model := core.Overlap{}

	var mm bytes.Buffer
	if err := mat.WriteMatrixMarket(&mm, m); err != nil {
		return err
	}
	var parseErr error
	r.m["mat.parse_s"] = timeCall(root, "mat.ReadMatrixMarket", "mat", 0, func() {
		_, parseErr = mat.ReadMatrixMarket[float64](bytes.NewReader(mm.Bytes()))
	}).Seconds()
	if parseErr != nil {
		return parseErr
	}

	var stats []core.CandidateStats
	r.m["core.enumerate_s"] = timeCall(root, "core.EnumerateStatsAll", "core", 0, func() {
		stats = core.EnumerateStatsAll(mat.PatternOf(m), floats.SizeOf[float64]())
	}).Seconds()
	r.m["core.candidates"] = float64(len(stats))
	var pred core.Prediction
	r.m["core.rank_s"] = timeCall(root, "core.SelectSafe", "core", 0, func() {
		pred = core.SelectSafe(model, core.WithRHS(stats, rhs), r.mach, r.prof)
	}).Seconds()
	var inst formats.Instance[float64]
	r.m["formats.build_s"] = timeCall(root, "core.Instantiate", "formats", 0, func() {
		inst = core.Instantiate(m, pred.Cand)
	}).Seconds()

	x := randVec(r.rng, m.Cols())
	y := make([]float64, m.Rows())
	spmv := timeCall(root, "Instance.Mul", "formats", r.budget(), func() { inst.Mul(x, y) })
	r.m["formats.spmv_ms"] = ms(spmv)
	r.m["formats.bytes_per_nnz"] = float64(inst.MatrixBytes()) / float64(inst.NNZ())
	r.m["formats.gbps_computed"] = float64(formats.WorkingSetBytes(inst)) / spmv.Seconds() / 1e9
	for _, cs := range stats {
		if cs.Cand != pred.Cand {
			continue
		}
		if p := model.Predict(cs, r.mach, r.prof); p > 0 {
			r.m["core.model_ratio"] = spmv.Seconds() / p
		}
		var memS, total float64
		for _, t := range core.Explain(cs, r.mach, r.prof).Terms {
			memS += t.MemorySeconds
			total += t.MemorySeconds + t.Nof*t.ComputeSeconds
		}
		if total > 0 {
			r.m["core.mem_term_share"] = memS / total
		}
	}

	xs, ys := make([][]float64, batchMax), make([][]float64, batchMax)
	for l := range xs {
		xs[l], ys[l] = randVec(r.rng, m.Cols()), make([]float64, m.Rows())
	}
	panel := timeCall(root, "formats.MulVecs", "formats", r.budget(), func() { formats.MulVecs(inst, xs, ys) })
	r.m["formats.panel8_ms"] = ms(panel)
	r.m["formats.panel8_per_vec_ratio"] = panel.Seconds() / batchMax / spmv.Seconds()

	regret, err := r.regret(root, m, stats, rhs, xs, ys)
	if err != nil {
		return err
	}
	r.m["core.regret"] = regret

	pm := parallel.NewMul(inst, r.nproc, parallel.BalanceWeights)
	var pErr error
	par := timeCall(root, "parallel.Mul.MulVec", "parallel", r.budget(), func() {
		if err := pm.MulVec(x, y); err != nil {
			pErr = err
		}
	})
	pm.Close()
	if pErr != nil {
		return pErr
	}
	r.m["parallel.spmv_ms"] = ms(par)
	r.m["parallel.speedup"] = spmv.Seconds() / par.Seconds()

	var enc []byte
	r.m["wire.encode_us"] = timeCall(root, "server.EncodeVector", "wire", r.budget(), func() {
		enc, err = server.EncodeVector(x)
	}).Seconds() * 1e6
	if err != nil {
		return err
	}
	r.m["wire.decode_us"] = timeCall(root, "server.DecodeVector", "wire", r.budget(), func() {
		_, err = server.DecodeVector(enc, len(x))
	}).Seconds() * 1e6
	if err != nil {
		return err
	}
	return r.probeOverlay(root, m, inst, x, y)
}

// regret builds the top five ranked candidates and returns the selected
// one's time over the fastest of them, each timed at the panel width the
// selection was priced for (the paper's Fig. 4 quantity).
func (r *runner) regret(root *active, m *mat.COO[float64], stats []core.CandidateStats, rhs int, xs, ys [][]float64) (float64, error) {
	ranked := core.RankSafe(core.Overlap{}, core.WithRHS(stats, rhs), r.mach, r.prof)
	ranked = ranked[:min(5, len(ranked))]
	var calls []call
	for _, p := range ranked {
		inst, err := build(m, p.Cand)
		if err != nil {
			return 0, err
		}
		f := func() { inst.Mul(xs[0], ys[0]) }
		if rhs > 1 {
			f = func() { formats.MulVecs(inst, xs[:rhs], ys[:rhs]) }
		}
		calls = append(calls, call{"top5 " + p.Cand.String(), "formats", f})
	}
	times := timeRounds(root, time.Duration(len(calls))*r.budget(), calls...)
	best := times[0]
	r.logf("%s top-5 at k=%d:", r.w.name, max(rhs, 1))
	for i, t := range times {
		best = min(best, t)
		r.logf(" %s %.3f ms;", ranked[i].Cand, ms(t))
	}
	r.logf("\n")
	return times[0].Seconds() / best.Seconds(), nil
}

// build instantiates a candidate, reporting a construction panic as an
// error the way the registry does.
func build(m *mat.COO[float64], c core.Candidate) (inst formats.Instance[float64], err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("constructing %s panicked: %v", c, p)
		}
	}()
	return core.Instantiate(m, c), nil
}

// probeOverlay times the delta overlay over the selected instance: the
// fix-up a multiply pays with recompactAfter pending cells, and the cost
// of applying one update batch.
func (r *runner) probeOverlay(root *active, m *mat.COO[float64], inst formats.Instance[float64], x, y []float64) error {
	ov := overlay.Wrap(inst, m)
	next := rowSumUpdates(r.rng, m)
	for ov.Pending() < recompactAfter {
		before := ov.Pending()
		if err := ov.Apply(next(int(before))); err != nil {
			return err
		}
		if ov.Pending() == before {
			break // the matrix is too small to hold that many distinct cells
		}
	}
	t := timeRounds(root, 2*r.budget(),
		call{"Instance.Mul", "formats", func() { inst.Mul(x, y) }},
		call{"Overlay.Mul", "overlay", func() { ov.Mul(x, y) }})
	r.m["overlay.fixup_ms"] = ms(t[1] - t[0])
	batch := next(-1)
	var err error
	r.m["overlay.apply_ms"] = ms(timeCall(root, "Overlay.Apply", "overlay", r.budget(), func() {
		if e := ov.Apply(batch); e != nil {
			err = e
		}
	}))
	return err
}

// call is one public call an out-of-band timing repeats.
type call struct {
	name, layer string
	f           func()
}

// timeCall times one call; see timeRounds.
func timeCall(parent *active, name, layer string, budget time.Duration, f func()) time.Duration {
	return timeRounds(parent, budget, call{name, layer, f})[0]
}

// timeRounds runs every call once to warm up, then in rounds, one call
// after the other, until budget has passed and at least 5 rounds ran,
// each call in its own span; it returns each call's median. Alternating
// keeps a drift in host speed from favouring whichever call is timed
// first. A zero budget runs one round and no warm-up, for calls too slow
// to repeat.
func timeRounds(parent *active, budget time.Duration, calls ...call) []time.Duration {
	rounds := 1
	if budget > 0 {
		rounds = 5
		for _, c := range calls {
			c.f()
		}
	}
	ds := make([][]time.Duration, len(calls))
	start := time.Now()
	for n := 0; n < rounds || time.Since(start) < budget; n++ {
		for i, c := range calls {
			sp := parent.child(c.name, c.layer)
			t0 := time.Now()
			c.f()
			ds[i] = append(ds[i], time.Since(t0))
			sp.end()
		}
	}
	out := make([]time.Duration, len(calls))
	for i, d := range ds {
		sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
		out[i] = d[len(d)/2]
	}
	return out
}
