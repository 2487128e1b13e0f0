package shard

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/faultcheck"
	"blockspmv/internal/formats"
	"blockspmv/internal/leakcheck"
	"blockspmv/internal/mat"
	"blockspmv/internal/metrics"
	"blockspmv/internal/server"
	"blockspmv/internal/testmat"
)

// panelVecsFor builds k distinct dense right-hand sides of length n.
func panelVecsFor(k, n int) [][]float64 {
	xs := make([][]float64, k)
	for l := range xs {
		xs[l] = make([]float64, n)
		for j := range xs[l] {
			xs[l][j] = math.Sin(float64(l*1009 + j + 1))
		}
	}
	return xs
}

// histogram reads a histogram snapshot from the coordinator's registry.
func histogram(t *testing.T, c *Coordinator, id string) metrics.HistogramSnapshot {
	t.Helper()
	v, ok := c.Metrics().Snapshot()[id]
	if !ok {
		t.Fatalf("no metric %q", id)
	}
	return v.(metrics.HistogramSnapshot)
}

// TestMulVecsBitForBit: a caller-provided panel scattered over three
// workers equals the per-vector single-node product bit for bit — the
// SpS2 frame changes how the vectors travel, never their values.
func TestMulVecsBitForBit(t *testing.T) {
	leakcheck.Check(t)
	m := testmat.Random[float64](240, 180, 0.08, 42)
	m.Finalize()
	var workers []*server.Server
	var addrs []string
	for i := 0; i < 3; i++ {
		s, addr := startWorker(t, server.Config{Workers: 2, BatchMax: 4})
		workers, addrs = append(workers, s), append(addrs, addr)
	}
	specs := deployInstances(t, m, workers, addrs, func(sub *mat.COO[float64]) formats.Instance[float64] {
		return csr.FromCOO(sub, blocks.Scalar)
	})
	c, err := New(180, specs, Options{Transport: noKeepAlive()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	single := csr.FromCOO(m, blocks.Scalar)
	for _, k := range []int{1, 4} {
		xs := panelVecsFor(k, 180)
		ys, err := c.MulVecs(context.Background(), xs)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(ys) != k {
			t.Fatalf("k=%d: got %d vectors", k, len(ys))
		}
		want := make([]float64, 240)
		for l := range xs {
			single.Mul(xs[l], want)
			for i := range want {
				if math.Float64bits(ys[l][i]) != math.Float64bits(want[i]) {
					t.Fatalf("k=%d: y[%d][%d] = %x, single-node %x", k, l, i,
						math.Float64bits(ys[l][i]), math.Float64bits(want[i]))
				}
			}
		}
	}

	// Degenerate panels: empty is a typed rejection, ragged a DimError.
	var pnl *formats.PanelError
	if _, err := c.MulVecs(context.Background(), nil); !errors.As(err, &pnl) {
		t.Fatalf("empty panel: %v", err)
	}
	var dim *formats.DimError
	ragged := [][]float64{testVec(180), testVec(7)}
	if _, err := c.MulVecs(context.Background(), ragged); !errors.As(err, &dim) {
		t.Fatalf("ragged panel: %v", err)
	}
}

// TestBatchedMulVecBitForBit is the tentpole property: N concurrent
// MulVec callers coalesced by the gather-window batcher — with a fault
// on the first connection so the panel retry path is exercised — each
// receive exactly the bit-for-bit single-node product for their own x,
// and the panel-width histogram proves coalescing actually happened.
func TestBatchedMulVecBitForBit(t *testing.T) {
	leakcheck.Check(t)
	rig := newChaosRig(t, Options{
		BatchMax:       8,
		BatchWindow:    20 * time.Millisecond,
		MaxAttempts:    3,
		AttemptTimeout: 2 * time.Second,
		RetryBase:      time.Millisecond,
	}, faultcheck.Plan{Drop: true}, faultcheck.Plan{})

	const callers = 12
	inst := csr.FromCOO(rig.m, blocks.Scalar)
	xs := panelVecsFor(callers, 80)
	wants := make([][]float64, callers)
	for i := range wants {
		wants[i] = make([]float64, 200)
		inst.Mul(xs[i], wants[i])
	}

	var wg sync.WaitGroup
	errs := make([]error, callers)
	got := make([][]float64, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = rig.coord.MulVec(context.Background(), xs[i])
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		for j := range wants[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(wants[i][j]) {
				t.Fatalf("caller %d: y[%d] = %x, single-node %x", i, j,
					math.Float64bits(got[i][j]), math.Float64bits(wants[i][j]))
			}
		}
	}

	// Coalescing proof: 12 callers produced fewer than 12 panels, so the
	// mean panel width exceeds one RHS per scatter.
	bk := histogram(t, rig.coord, "spmv_shard_batch_k")
	if bk.Count == 0 || bk.Count >= callers {
		t.Fatalf("batch_k count = %d for %d callers: no coalescing", bk.Count, callers)
	}
	if bk.Mean <= 1 {
		t.Fatalf("batch_k mean = %g, want > 1", bk.Mean)
	}
	if tx := counter(t, rig.coord, "spmv_shard_panel_tx_bytes_total"); tx == 0 {
		t.Fatal("no panel bytes recorded on the wire")
	}
}

// gatedInst blocks every kernel call until open is closed, so a test
// can hold a panel in flight at the worker while callers queue behind
// it at the coordinator.
type gatedInst struct {
	formats.Instance[float64]
	open chan struct{}
}

func (g *gatedInst) Mul(x, y []float64) {
	<-g.open
	g.Instance.Mul(x, y)
}

func (g *gatedInst) MulRange(x, y []float64, r0, r1 int) {
	<-g.open
	g.Instance.MulRange(x, y, r0, r1)
}

func (g *gatedInst) MulRangeMulti(x, y []float64, k, r0, r1 int) {
	<-g.open
	g.Instance.MulRangeMulti(x, y, k, r0, r1)
}

// TestBatchedCancelLeavesSiblingsHealthy: a caller canceled while it
// waits in the queue behind an in-flight panel is dropped pre-flight —
// it observes its own ctx error and its rows never reach the wire —
// while the siblings gathered with it still receive bit-exact results
// as one panel.
func TestBatchedCancelLeavesSiblingsHealthy(t *testing.T) {
	leakcheck.Check(t)
	m := testmat.Random[float64](200, 80, 0.1, 17)
	m.Finalize()
	w, addr := startWorker(t, server.Config{})
	inst := csr.FromCOO(m, blocks.Scalar)
	gate := make(chan struct{})
	if _, err := w.Registry().RegisterShardInstance("all", &gatedInst{Instance: inst, open: gate}, 0, 200); err != nil {
		t.Fatal(err)
	}
	c, err := New(80, []Spec{{Row0: 0, Row1: 200, Replicas: []Replica{{Addr: addr, Matrix: "all"}}}}, Options{BatchMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	open := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(open) // runs first: the coordinator drains only once the worker answers

	// A lone caller's panel parks in the worker's kernel and holds the
	// coordinator's loop in its scatter.
	x := testVec(80)
	want := make([]float64, 200)
	inst.Mul(x, want)
	held := make(chan error, 1)
	go func() {
		_, err := c.MulVec(context.Background(), x)
		held <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for counter(t, c, "spmv_shard_panels_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the held panel never scattered")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue the doomed caller (its MulVec returns only after it is
	// queued) and two siblings behind the held panel.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if y, err := c.MulVec(cctx, x); !errors.Is(err, context.Canceled) || y != nil {
		t.Fatalf("canceled caller: y=%v err=%v", y, err)
	}
	siblings := make([]*caller, 2)
	for i := range siblings {
		siblings[i] = &caller{ctx: context.Background(), x: x, y: make([]float64, 200), done: make(chan error, 1)}
		if err := c.bat.q.Submit(siblings[i]); err != nil {
			t.Fatal(err)
		}
	}
	open()
	if err := <-held; err != nil {
		t.Fatalf("held caller: %v", err)
	}
	for i, cl := range siblings {
		if err := <-cl.done; err != nil {
			t.Fatalf("sibling %d: %v", i, err)
		}
		for j := range want {
			if math.Float64bits(cl.y[j]) != math.Float64bits(want[j]) {
				t.Fatalf("sibling %d: y[%d] = %x, want %x", i, j, math.Float64bits(cl.y[j]), math.Float64bits(want[j]))
			}
		}
	}
	// The held k=1 panel, then the siblings as one k=2 panel: the doomed
	// caller was gathered with them but its rows never went out.
	if bk := histogram(t, c, "spmv_shard_batch_k"); bk.Count != 2 || bk.Sum != 3 {
		t.Fatalf("batch_k: %d panels of %g vectors in all, want the held k=1 and one k=2 panel", bk.Count, bk.Sum)
	}
}

// TestBatchedOverloadSheds: a batcher whose queue is full sheds new
// callers with server.ErrOverloaded and counts them, instead of building
// an unbounded backlog.
func TestBatchedOverloadSheds(t *testing.T) {
	leakcheck.Check(t)
	rig := newChaosRig(t, Options{
		BatchMax:       2,
		BatchWindow:    50 * time.Millisecond,
		QueueDepth:     1,
		MaxAttempts:    1,
		AttemptTimeout: 5 * time.Second,
	}, faultcheck.Plan{Delay: 200 * time.Millisecond})

	// Saturate: one caller occupies the in-flight panel (delayed at the
	// proxy), more fill the depth-1 queue; eventually a submit sheds.
	var wg sync.WaitGroup
	shed := make(chan struct{}, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rig.coord.MulVec(context.Background(), rig.x); errors.Is(err, server.ErrOverloaded) {
				shed <- struct{}{}
			}
		}()
	}
	wg.Wait()
	select {
	case <-shed:
	default:
		t.Fatal("no caller was shed at queue depth 1 under a delayed backend")
	}
	if got := counter(t, rig.coord, "spmv_shard_batch_shed_total"); got == 0 {
		t.Fatal("shed counter did not move")
	}
}

// TestBatchedCorruptionNeverWrong: with corruption on every connection,
// every member of a batched panel gets the typed checksum failure —
// all-or-nothing holds under faults, and nobody sees a wrong vector.
func TestBatchedCorruptionNeverWrong(t *testing.T) {
	leakcheck.Check(t)
	rig := newChaosRig(t, Options{
		BatchMax:    4,
		BatchWindow: 20 * time.Millisecond,
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
	}, faultcheck.Plan{CorruptAt: 600})

	const callers = 3
	var wg sync.WaitGroup
	errs := make([]error, callers)
	ys := make([][]float64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ys[i], errs[i] = rig.coord.MulVec(context.Background(), rig.x)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if ys[i] != nil {
			t.Fatalf("caller %d got a vector from a corrupted stream", i)
		}
		if !errors.Is(errs[i], ErrShardDown) || !errors.Is(errs[i], server.ErrWireChecksum) {
			t.Fatalf("caller %d: err = %v, want ErrShardDown wrapping ErrWireChecksum", i, errs[i])
		}
	}
}

// TestPanelHedgeCountsOncePerPair pins the hedge metric's unit: one
// increment per primary+hedge pair, independent of the panel width —
// a k-wide panel that hedges is one hedge, not k.
func TestPanelHedgeCountsOncePerPair(t *testing.T) {
	leakcheck.Check(t)
	m := testmat.Random[float64](120, 60, 0.1, 23)
	m.Finalize()
	w, addr := startWorker(t, server.Config{})
	if _, err := w.Registry().RegisterShardInstance("all", csr.FromCOO(m, blocks.Scalar), 0, 120); err != nil {
		t.Fatal(err)
	}
	// Every connection hangs, so the one attempt launches its hedge and
	// both stall until the attempt timeout.
	proxy, err := faultcheck.NewProxy(addr, faultcheck.Plan{HangAfter: 50})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)

	c, err := New(60, []Spec{{Row0: 0, Row1: 120, Replicas: []Replica{
		{Addr: proxy.Addr(), Matrix: "all"},
		{Addr: proxy.Addr(), Matrix: "all"},
	}}}, Options{
		Transport:      noKeepAlive(),
		HedgeAfter:     30 * time.Millisecond,
		AttemptTimeout: 400 * time.Millisecond,
		MaxAttempts:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.MulVecs(context.Background(), panelVecsFor(3, 60)); err == nil {
		t.Fatal("hanging replicas answered")
	}
	if hedges := counter(t, c, `spmv_shard_hedges_total{shard="0"}`); hedges != 1 {
		t.Fatalf("hedges = %d for one hedged panel attempt, want exactly 1", hedges)
	}
}

// TestFrameEncodeZeroAlloc pins the pooled scatter-encode path: once a
// pooled buffer has served a frame of each shape, re-encoding SpS1 and
// SpS2 frames through getFrame/encodeFrame/release allocates nothing.
func TestFrameEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops items by design")
	}
	x := testVec(256)
	xs := [][]float64{x, x, x, x}
	warm := func(vecs [][]float64) {
		fb := getFrame()
		if err := encodeFrame(fb, 0, 64, vecs); err != nil {
			t.Fatal(err)
		}
		fb.release()
	}
	warm([][]float64{x})
	warm(xs)

	if n := testing.AllocsPerRun(200, func() {
		fb := getFrame()
		encodeFrame(fb, 0, 64, [][]float64{x})
		fb.release()
	}); n != 0 {
		t.Fatalf("SpS1 encode cycle allocates %.1f per run", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		fb := getFrame()
		encodeFrame(fb, 0, 64, xs)
		fb.release()
	}); n != 0 {
		t.Fatalf("SpS2 encode cycle allocates %.1f per run", n)
	}
}
