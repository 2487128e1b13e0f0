package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blockspmv"
	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/overlay"
	"blockspmv/internal/server"
	"blockspmv/internal/shard"
	"blockspmv/internal/solver"
	"blockspmv/internal/suite"
	"blockspmv/internal/testmat"
)

// workload is one named input set and traffic mix; BENCHMARK.json says
// why each was chosen. slo is the latency limit behind
// loadgen.slo_miss_ratio.
type workload struct {
	name string
	slo  time.Duration
	run  func(r *runner) error
}

var workloads = []workload{
	{"solve", 150 * time.Millisecond, runSolve},
	{"serve-http", 20 * time.Millisecond, runServeHTTP},
	{"serve-burst", 25 * time.Millisecond, runServeBurst},
	{"churn", 25 * time.Millisecond, runChurn},
	{"shard", 25 * time.Millisecond, runShard},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sizes and rates of the full-size workloads; tiny inputs keep the same
// shapes at a fraction of the size for the smoke test.
const (
	solveSide       = 64    // 3x3-block Laplacian on a 64x64 grid: 12.3k unknowns
	powerLawN       = 60000 // serve-http graph rows
	randomN         = 4096  // churn matrix side; shard's is half
	randomDensity   = 0.008
	burstRate       = 400.0 // serve-burst requests/s: the executor is busy ~13% of the window
	churnReadRate   = 200.0 // churn reads/s
	churnUpdateRate = 6.0   // churn update batches/s: a recompaction every ~1.5 s
	updateBatch     = 64
	recompactAfter  = 512
	shardRate       = 200.0 // shard calls/s
	batchMax        = 8     // spmvd default panel width
	poolSize        = 16    // seeded x vectors per run
	tolerance       = 1e-12 // norm-wise relative error allowed per response
	solveTol        = 1e-8
)

// runSolve autotunes a block Laplacian once and solves it back to back
// with pooled CG, the library's own use of the kernel.
func runSolve(r *runner) error {
	m, err := r.matrix()
	if err != nil {
		return err
	}
	b := randVec(r.rng, m.Rows())

	var inst blockspmv.Format[float64]
	err = r.setup(func(sp *active) error {
		c := sp.child("blockspmv.Autotune", "core")
		f, pred := blockspmv.Autotune(m, r.mach, r.prof)
		c.end()
		if f == nil {
			return fmt.Errorf("autotune: %s", pred.Reason)
		}
		inst = f
		return nil
	})
	if err != nil {
		return err
	}
	r.rep.Selected = inst.Name()
	r.rep.WorkingSetBytes = formats.WorkingSetBytes(inst)

	// The timing wrapper only exists in the traced run.
	a := formats.Instance[float64](inst)
	var kern *timedInstance
	if r.tr != nil {
		kern = &timedInstance{Instance: inst}
		a = kern
	}
	var (
		iters   atomic.Int64
		cgNanos atomic.Int64
	)
	want, pinned := r.pinnedIterations()
	solve := func(_ int, sp *active) (func() error, error) {
		x := make([]float64, m.Rows())
		c := sp.child("solver.CG", "solver")
		kern.under(c)
		t0 := time.Now()
		st, err := solver.CG(a, b, x, solver.Options{Tol: solveTol, Workers: r.nproc})
		cgNanos.Add(int64(time.Since(t0)))
		c.end()
		if err != nil {
			return nil, err
		}
		return func() error {
			if res := residual(m, b, x); res > solveTol {
				return fmt.Errorf("%w: residual %.3g > %.0e", errWrong, res, solveTol)
			}
			first := iters.CompareAndSwap(0, int64(st.Iterations))
			if !first && iters.Load() != int64(st.Iterations) {
				return fmt.Errorf("%w: %d iterations, an earlier solve took %d", errWrong, st.Iterations, iters.Load())
			}
			if pinned && st.Iterations != want {
				return fmt.Errorf("%w: %d iterations, baseline.json records %d for seed %d", errWrong, st.Iterations, want, r.cfg.seed)
			}
			return nil
		}, nil
	}

	closedLoop(nil, 1, r.cfg.warmup, "solve", solve)
	iters.Store(0)
	cgNanos.Store(0)
	if kern != nil {
		kern.busy.Store(0)
	}
	r.tr.setPhase("window")
	s := closedLoop(r.tr, 1, r.cfg.window, "solve", solve)
	r.finishLoad(s, nil)
	r.rep.Iterations = int(iters.Load())
	r.m["solver.iterations"] = float64(iters.Load())
	if kern != nil && cgNanos.Load() > 0 {
		r.m["solver.spmv_share"] = float64(kern.busy.Load()) / float64(cgNanos.Load()*int64(r.nproc))
	}
	r.probeOn(m, 1)
	return nil
}

// timedInstance forwards the kernel calls the pooled executor makes to
// the wrapped instance unchanged, and records a span around each.
type timedInstance struct {
	formats.Instance[float64]
	parent atomic.Pointer[active]
	busy   atomic.Int64 // nanoseconds inside the kernel, summed over threads
}

// under sets the span the next kernel calls belong to; nil-safe.
func (t *timedInstance) under(a *active) {
	if t != nil {
		t.parent.Store(a)
	}
}

func (t *timedInstance) time(name string, f func()) {
	sp := t.parent.Load().child(name, "formats")
	t0 := time.Now()
	f()
	t.busy.Add(int64(time.Since(t0)))
	sp.end()
}

func (t *timedInstance) MulRange(x, y []float64, r0, r1 int) {
	t.time("MulRange", func() { t.Instance.MulRange(x, y, r0, r1) })
}

func (t *timedInstance) MulRangeMulti(x, y []float64, k, r0, r1 int) {
	t.time("MulRangeMulti", func() { t.Instance.MulRangeMulti(x, y, k, r0, r1) })
}

// servingConfig is spmvd's default configuration with selection pinned to
// the committed profile.
func (r *runner) servingConfig() server.Config {
	return server.Config{
		Mach: r.mach, Prof: r.prof, Workers: r.nproc,
		BatchMax: batchMax, BatchWindow: 200 * time.Microsecond,
	}
}

// listen serves s on a loopback port until the returned stop is called.
func listen(s *server.Server) (addr string, stop func() error, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	return l.Addr().String(), func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := s.Shutdown(ctx)
		if serr := <-done; err == nil {
			err = serr
		}
		return err
	}, nil
}

// runServeHTTP uploads a power-law graph to spmvd over HTTP and drives it
// with nproc closed-loop clients speaking the binary vector codec.
func runServeHTTP(r *runner) (err error) {
	m, err := r.matrix()
	if err != nil {
		return err
	}
	var mm bytes.Buffer
	if err := mat.WriteMatrixMarket(&mm, m); err != nil {
		return err
	}
	xs, refs := r.vectors(m)

	srv := server.New(r.servingConfig())
	addr, stop, err := listen(srv)
	if err != nil {
		srv.Close()
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: r.nproc, MaxIdleConnsPerHost: r.nproc}}
	defer client.CloseIdleConnections()
	url := "http://" + addr + "/v1/matrix/graph"

	var info server.Info
	err = r.setup(func(sp *active) error {
		c := sp.child("PUT /v1/matrix", "http")
		defer c.end()
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(mm.Bytes()))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			body, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("PUT %s: %s: %s", url, resp.Status, body)
		}
		return json.NewDecoder(resp.Body).Decode(&info)
	})
	if err != nil {
		return err
	}
	r.setServed(info)

	var postNanos atomic.Int64
	mulvec := func(i int, sp *active) (func() error, error) {
		x, ref := xs[i%poolSize], refs[i%poolSize]
		c := sp.child("server.EncodeVector", "wire")
		body, err := server.EncodeVector(x)
		c.end()
		if err != nil {
			return nil, err
		}
		c = sp.child("POST mulvec", "http")
		t0 := time.Now()
		out, err := post(client, url+"/mulvec", body)
		postNanos.Add(int64(time.Since(t0)))
		c.end()
		if err != nil {
			return nil, err
		}
		c = sp.child("server.DecodeVector", "wire")
		y, err := server.DecodeVector(out, info.Rows)
		c.end()
		if err != nil {
			return nil, err
		}
		return func() error { return checkVec(y, ref) }, nil
	}

	closedLoop(nil, r.nproc, r.cfg.warmup, "request", mulvec)
	postNanos.Store(0)
	before := srv.Metrics().Snapshot()
	r.tr.setPhase("window")
	s := closedLoop(r.tr, r.nproc, r.cfg.window, "request", mulvec)
	after := srv.Metrics().Snapshot()
	r.finishLoad(s, nil)
	r.serverLayer(before, after)
	if p := postNanos.Load(); p > 0 {
		_, reqSum := histDelta(before, after, "spmvd_request_seconds")
		r.m["http.overhead_share"] = 1 - reqSum*1e9/float64(p)
	}
	r.probeOn(m, batchMax)
	return nil
}

func post(client *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", server.ContentTypeVector)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// runServeBurst registers the FEM matrix 16.bone010 in the in-process
// registry and sends it Poisson traffic from independent users.
func runServeBurst(r *runner) error {
	m, err := r.matrix()
	if err != nil {
		return err
	}
	xs, refs := r.vectors(m)
	srv := server.New(r.servingConfig())
	defer srv.Close()
	reg := srv.Registry()

	var info server.Info
	err = r.setup(func(sp *active) error {
		c := sp.child("Registry.RegisterMatrix", "server")
		defer c.end()
		var err error
		info, err = reg.RegisterMatrix("bone010", m)
		return err
	})
	if err != nil {
		return err
	}
	r.setServed(info)

	mulvec := func(i int, sp *active) (func() error, error) {
		x, ref := xs[i%poolSize], refs[i%poolSize]
		c := sp.child("Registry.MulVec", "server")
		y, err := reg.MulVec(r.ctx, "bone010", x)
		c.end()
		if err != nil {
			return nil, err
		}
		return func() error { return checkVec(y, ref) }, nil
	}
	openLoop(nil, poissonArrivals(r.rng, burstRate, r.cfg.warmup), "request", mulvec)
	arrivals := poissonArrivals(r.rng, burstRate, r.cfg.window)
	before := srv.Metrics().Snapshot()
	r.tr.setPhase("window")
	s := openLoop(r.tr, arrivals, "request", mulvec)
	after := srv.Metrics().Snapshot()
	r.finishLoad(s, nil)
	r.serverLayer(before, after)
	r.probeOn(m, batchMax)
	return nil
}

// runChurn serves a mutable random matrix: reads with x = ones, whose
// answer is the row sums, beside batches of row-sum-preserving updates
// that keep the background recompactor busy.
func runChurn(r *runner) error {
	m, err := r.matrix()
	if err != nil {
		return err
	}
	ones := make([]float64, m.Cols())
	for i := range ones {
		ones[i] = 1
	}
	rowSums := make([]float64, m.Rows())
	m.MulVec(ones, rowSums)

	cfg := r.servingConfig()
	cfg.Mutable, cfg.RecompactAfter = true, recompactAfter
	srv := server.New(cfg)
	defer srv.Close()
	reg := srv.Registry()

	var info server.Info
	err = r.setup(func(sp *active) error {
		// The registry keeps the matrix as the overlay's ground truth, so
		// every registration gets its own copy.
		mc := m.Clone()
		c := sp.child("Registry.RegisterMatrix", "server")
		defer c.end()
		var err error
		info, err = reg.RegisterMatrix("churn", mc)
		return err
	})
	if err != nil {
		return err
	}
	r.setServed(info)

	read := func(_ int, sp *active) (func() error, error) {
		c := sp.child("Registry.MulVec", "server")
		y, err := reg.MulVec(r.ctx, "churn", ones)
		c.end()
		if err != nil {
			return nil, err
		}
		return func() error { return checkVec(y, rowSums) }, nil
	}
	var (
		pendingMu  sync.Mutex
		pendingMax int64
		updNanos   atomic.Int64
	)
	upd := rowSumUpdates(r.rng, m)
	update := func(i int, sp *active) (func() error, error) {
		c := sp.child("Registry.Update", "overlay")
		t0 := time.Now()
		res, err := reg.Update(r.ctx, "churn", upd(i))
		updNanos.Add(int64(time.Since(t0)))
		c.end()
		if err != nil {
			return nil, err
		}
		pendingMu.Lock()
		pendingMax = max(pendingMax, res.Pending)
		pendingMu.Unlock()
		return nil, nil
	}
	both := func(tr *tracer, dur time.Duration) (reads, updates *sample) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			updates = openLoop(tr, evenArrivals(churnUpdateRate, dur), "update", update)
		}()
		reads = openLoop(tr, poissonArrivals(r.rng, churnReadRate, dur), "read", read)
		wg.Wait()
		return reads, updates
	}

	both(nil, r.cfg.warmup)
	updNanos.Store(0)
	pendingMu.Lock()
	pendingMax = 0
	pendingMu.Unlock()
	before := srv.Metrics().Snapshot()
	r.tr.setPhase("window")
	reads, updates := both(r.tr, r.cfg.window)
	after := srv.Metrics().Snapshot()
	r.finishLoad(reads, updates)
	r.serverLayer(before, after)

	win := r.cfg.window.Seconds()
	_, recompactSum := histDelta(before, after, "spmv_overlay_recompact_seconds")
	r.m["overlay.update_calls"] = float64(updates.sent)
	r.m["overlay.update_busy_share"] = float64(updNanos.Load()) / 1e9 / win
	r.m["overlay.recompactions"] = float64(counterDelta(before, after, "spmv_overlay_recompactions_total"))
	r.m["overlay.recompact_busy_share"] = recompactSum / win
	r.m["overlay.format_changes"] = float64(counterDelta(before, after, "spmv_overlay_format_changed_total"))
	r.m["overlay.pending_max"] = float64(pendingMax)
	sortDurations(updates.lat)
	r.logf("churn updates: %d sent, p50 %.3f ms, p90 %.3f ms, %d recompactions\n",
		updates.sent, ms(percentile(updates.lat, 0.5)), ms(percentile(updates.lat, 0.9)),
		int(r.m["overlay.recompactions"]))
	r.probeOn(m, batchMax)
	return nil
}

// rowSumUpdates returns the i-th update batch: for updateBatch/2 seeded
// rows, +d on one stored entry and -d on another, so every row sum (the
// answer to x = ones) is unchanged and no new entries are inserted.
func rowSumUpdates(rng *rand.Rand, m *mat.COO[float64]) func(i int) []overlay.Update[float64] {
	es := m.Entries()
	var rows [][2]int // entry ranges of the rows holding at least two entries
	for lo := 0; lo < len(es); {
		hi := lo
		for hi < len(es) && es[hi].Row == es[lo].Row {
			hi++
		}
		if hi-lo >= 2 {
			rows = append(rows, [2]int{lo, hi})
		}
		lo = hi
	}
	seed := rng.Int63()
	return func(i int) []overlay.Update[float64] {
		g := rand.New(rand.NewSource(seed + int64(i)))
		ups := make([]overlay.Update[float64], 0, updateBatch)
		for len(ups) < updateBatch {
			span := rows[g.Intn(len(rows))]
			a := span[0] + g.Intn(span[1]-span[0])
			b := span[0] + g.Intn(span[1]-span[0]-1)
			if b >= a {
				b++
			}
			d := g.Float64() - 0.5
			ups = append(ups,
				overlay.Update[float64]{Op: overlay.OpAdd, Row: es[a].Row, Col: es[a].Col, Val: d},
				overlay.Update[float64]{Op: overlay.OpAdd, Row: es[b].Row, Col: es[b].Col, Val: -d})
		}
		return ups
	}
}

// runShard scatters a random matrix over two loopback shard workers and
// drives the coordinator's gather-window batcher with Poisson calls.
func runShard(r *runner) (err error) {
	m, err := r.matrix()
	if err != nil {
		return err
	}
	xs, refs := r.vectors(m)

	const workers = 2
	var (
		srvs  []*server.Server
		addrs []string
		stops []func() error
	)
	defer func() {
		for _, stop := range stops {
			if serr := stop(); err == nil {
				err = serr
			}
		}
	}()
	for i := 0; i < workers; i++ {
		cfg := r.servingConfig()
		cfg.EnableShard = true
		s := server.New(cfg)
		addr, stop, err := listen(s)
		if err != nil {
			s.Close()
			return err
		}
		stops = append(stops, stop)
		srvs = append(srvs, s)
		addrs = append(addrs, addr)
	}

	// One connection per worker, for registration and for traffic alike.
	regClient := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: time.Minute}
	var coord *shard.Coordinator
	err = r.setup(func(sp *active) error {
		c := sp.child("shard.RegisterShards", "shard")
		specs, err := shard.RegisterShards(r.ctx, regClient, m, "random", addrs, shard.Plan(m, workers))
		c.end()
		if err != nil {
			return err
		}
		c = sp.child("shard.New", "shard")
		next, err := shard.New(m.Cols(), specs, shard.Options{
			Timeout: 10 * time.Second, BatchMax: batchMax, BatchWindow: time.Millisecond,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
		c.end()
		if err != nil {
			return err
		}
		if coord != nil {
			coord.Close()
		}
		coord = next
		return nil
	})
	regClient.CloseIdleConnections()
	if coord != nil {
		defer coord.Close()
	}
	if err != nil {
		return err
	}
	var formatsUsed []string
	var matBytes int64
	for _, s := range srvs {
		for _, info := range s.Registry().List() {
			formatsUsed = append(formatsUsed, info.Format)
			matBytes += info.Bytes
		}
	}
	r.rep.Selected = strings.Join(formatsUsed, "|")
	r.rep.WorkingSetBytes = matBytes + formats.VectorBytes(m.Rows(), m.Cols(), 8)

	mulvec := func(i int, sp *active) (func() error, error) {
		x, ref := xs[i%poolSize], refs[i%poolSize]
		c := sp.child("Coordinator.MulVec", "shard")
		y, err := coord.MulVec(r.ctx, x)
		c.end()
		if err != nil {
			return nil, err
		}
		return func() error { return checkVec(y, ref) }, nil
	}
	openLoop(nil, poissonArrivals(r.rng, shardRate, r.cfg.warmup), "request", mulvec)
	arrivals := poissonArrivals(r.rng, shardRate, r.cfg.window)
	snap := func() (c map[string]any, w []map[string]any) {
		for _, s := range srvs {
			w = append(w, s.Metrics().Snapshot())
		}
		return coord.Metrics().Snapshot(), w
	}
	cBefore, wBefore := snap()
	r.tr.setPhase("window")
	s := openLoop(r.tr, arrivals, "request", mulvec)
	cAfter, wAfter := snap()
	r.finishLoad(s, nil)
	r.serverLayer(mergeSnapshots(wBefore), mergeSnapshots(wAfter))
	r.m["server.exec_busy_share"] /= workers

	kn, ksum := histDelta(cBefore, cAfter, "spmv_shard_batch_k")
	if kn > 0 {
		r.m["shard.batch_k_mean"] = ksum / float64(kn)
	}
	if calls := counterDelta(cBefore, cAfter, "spmv_shard_mulvec_total"); calls > 0 {
		r.m["shard.tx_bytes_per_call"] = float64(counterDelta(cBefore, cAfter, "spmv_shard_panel_tx_bytes_total")) / float64(calls)
	}
	r.m["shard.retries"] = float64(counterDelta(cBefore, cAfter, "spmv_shard_retries_total"))
	r.m["shard.hedges"] = float64(counterDelta(cBefore, cAfter, "spmv_shard_hedges_total"))
	r.probeOn(m, batchMax)
	return nil
}

// inputMatrix generates a workload's matrix from the seed; the suite's
// 16.bone010 carries a fixed seed of its own.
func inputMatrix(workload string, seed int64, tiny bool) (*mat.COO[float64], error) {
	switch workload {
	case "solve":
		if tiny {
			return laplacianBlocks(12, 3), nil
		}
		return laplacianBlocks(solveSide, 3), nil
	case "serve-http":
		if tiny {
			return suite.PowerLaw[float64](2000, 8, 1.8, seed), nil
		}
		return suite.PowerLaw[float64](powerLawN, 8, 1.8, seed), nil
	case "serve-burst":
		// The suite's tiny scale (7.7k rows, 267k nnz, about 2.9 MB) keeps
		// the matrix in the cores' own caches. At small scale (2.1M nnz,
		// 24 MB) each request streamed it from the LLC the host shares with
		// other tenants, and the median latency of ten seeds spread 30%.
		return suite.Build[float64](16, suite.Tiny)
	case "churn", "shard":
		if tiny {
			return testmat.Random[float64](256, 256, 0.05, seed), nil
		}
		if workload == "shard" {
			// Half the side at the same 33 entries per row: with less CPU
			// work per call, the median latency of ten seeds spread 5%
			// instead of 11% on the 4096-row matrix.
			return testmat.Random[float64](randomN/2, randomN/2, 2*randomDensity, seed), nil
		}
		return testmat.Random[float64](randomN, randomN, randomDensity, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func (r *runner) matrix() (*mat.COO[float64], error) {
	return inputMatrix(r.w.name, r.cfg.seed, r.cfg.tiny)
}

// laplacianBlocks builds a block 5-point Laplacian: every grid point
// carries dof unknowns coupled within the point, so each stencil entry is
// a dense dof x dof block. It is symmetric positive definite.
func laplacianBlocks(side, dof int) *mat.COO[float64] {
	n := side * side * dof
	m := mat.New[float64](n, n)
	addBlock := func(p, q int, scale float64) {
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

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// vectors draws the run's pool of seeded x vectors and their reference
// products, computed once from the coordinate entries (the CSR order).
func (r *runner) vectors(m *mat.COO[float64]) (xs, refs [][]float64) {
	for i := 0; i < poolSize; i++ {
		x := randVec(r.rng, m.Cols())
		y := make([]float64, m.Rows())
		m.MulVec(x, y)
		xs, refs = append(xs, x), append(refs, y)
	}
	return xs, refs
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// checkVec accepts y when ||y-ref|| <= tolerance * ||ref||.
func checkVec(y, ref []float64) error {
	if len(y) != len(ref) {
		return fmt.Errorf("%w: %d elements, want %d", errWrong, len(y), len(ref))
	}
	var d float64
	for i := range y {
		e := y[i] - ref[i]
		d += e * e
	}
	if rel := math.Sqrt(d) / norm(ref); !(rel <= tolerance) {
		return fmt.Errorf("%w: relative error %.3g", errWrong, rel)
	}
	return nil
}

// residual is ||b - A x|| / ||b|| from the coordinate entries.
func residual(m *mat.COO[float64], b, x []float64) float64 {
	ax := make([]float64, m.Rows())
	m.MulVec(x, ax)
	for i := range ax {
		ax[i] = b[i] - ax[i]
	}
	return norm(ax) / norm(b)
}
