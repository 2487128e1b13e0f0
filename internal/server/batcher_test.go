package server

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/leakcheck"
	"blockspmv/internal/mat"
	"blockspmv/internal/testmat"
)

// slowInst wraps a format with kernels that sleep for d and then, when
// gate is set, block until it is closed, so tests can hold a batch in
// flight long enough to observe queueing, shedding and drain.
type slowInst[T floats.Float] struct {
	formats.Instance[T]
	d    time.Duration
	gate chan struct{}
}

func (s *slowInst[T]) wait() {
	time.Sleep(s.d)
	if s.gate != nil {
		<-s.gate
	}
}

func (s *slowInst[T]) Mul(x, y []T) {
	s.wait()
	s.Instance.Mul(x, y)
}

func (s *slowInst[T]) MulRange(x, y []T, r0, r1 int) {
	s.wait()
	s.Instance.MulRange(x, y, r0, r1)
}

func (s *slowInst[T]) MulRangeMulti(x, y []T, k, r0, r1 int) {
	s.wait()
	s.Instance.MulRangeMulti(x, y, k, r0, r1)
}

// holdLoop registers a gated CSR copy of m as name and parks one request
// in its kernel, so every request submitted before release queues
// behind that in-flight panel and the test decides what the next gather
// finds. release opens the gate and returns the held request's outcome.
// A cleanup opens the gate too; tests close the registry with
// t.Cleanup, registered before holdLoop, so it runs after the gate opens.
func holdLoop(t *testing.T, g *Registry, name string, m *mat.COO[float64]) (release func() error) {
	t.Helper()
	inst, err := buildCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	if _, err := g.RegisterInstance(name, &slowInst[float64]{Instance: inst, gate: gate}); err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	go func() {
		_, err := g.MulVec(context.Background(), name, testVec(m.Cols()))
		held <- err
	}()
	release = sync.OnceValue(func() error { close(gate); return <-held })
	t.Cleanup(func() { release() })
	waitFor(t, "the held request's dispatch", func() bool { return g.in.queueWait.Count() > 0 })
	return release
}

// TestBatcherCoalesces queues a burst of concurrent requests behind an
// in-flight panel and checks that (a) every result is exact and (b) the
// batch-size metric proves k>1 panels actually formed.
func TestBatcherCoalesces(t *testing.T) {
	leakcheck.Check(t)
	g := NewRegistry(Config{Workers: 2, BatchMax: 8, QueueDepth: 64}, nil)
	t.Cleanup(g.Close)
	m := testmat.Random[float64](80, 60, 0.15, 7)
	release := holdLoop(t, g, "m", m)

	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	results := make([][]float64, clients)
	xs := make([][]float64, clients)
	for c := 0; c < clients; c++ {
		x := testVec(60)
		x[0] = float64(c + 1) // distinct inputs: cross-request mixups must show
		xs[c] = x
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = g.MulVec(context.Background(), "m", xs[c])
		}(c)
	}
	waitFor(t, "every client queued", func() bool { return g.in.queueDepth.Value() == clients })
	if err := release(); err != nil {
		t.Fatalf("held request: %v", err)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		want := refMul(m, xs[c])
		for i := range want {
			if math.Abs(results[c][i]-want[i]) > 1e-12 {
				t.Fatalf("client %d: y[%d] = %g, want %g", c, i, results[c][i], want[i])
			}
		}
	}
	if mean := g.in.MeanBatch(); mean <= 1 {
		t.Fatalf("mean batch size = %g: no coalescing happened", mean)
	}
	if ok := g.in.reqOK.Value(); ok != clients+1 {
		t.Fatalf("reqOK = %d, want %d", ok, clients+1)
	}
}

// TestBatcherPanelRequests drives the multi-RHS submit path: panel
// requests mix with single-vector requests in one batch, a panel wider
// than BatchMax is still served as one dispatch, every result is exact,
// and an empty panel is rejected before admission.
func TestBatcherPanelRequests(t *testing.T) {
	leakcheck.Check(t)
	g := NewRegistry(Config{
		Workers:     2,
		BatchMax:    4,
		BatchWindow: 5 * time.Millisecond,
		QueueDepth:  64,
	}, nil)
	defer g.Close()
	m := testmat.Random[float64](80, 60, 0.15, 7)
	if _, err := g.RegisterMatrix("m", m); err != nil {
		t.Fatal(err)
	}

	mkPanel := func(k, salt int) [][]float64 {
		xs := make([][]float64, k)
		for l := range xs {
			xs[l] = testVec(60)
			xs[l][0] = float64(salt + l + 1)
		}
		return xs
	}
	check := func(xs, ys [][]float64) {
		t.Helper()
		if len(ys) != len(xs) {
			t.Fatalf("got %d result vectors for %d inputs", len(ys), len(xs))
		}
		for l := range xs {
			want := refMul(m, xs[l])
			for i := range want {
				if math.Abs(ys[l][i]-want[i]) > 1e-12 {
					t.Fatalf("panel vector %d: y[%d] = %g, want %g", l, i, ys[l][i], want[i])
				}
			}
		}
	}

	// Concurrent mix: two panels and two singles race into the queue.
	var wg sync.WaitGroup
	panels := [][][]float64{mkPanel(2, 100), mkPanel(3, 200)}
	panelYs := make([][][]float64, len(panels))
	panelErrs := make([]error, len(panels))
	singles := [][]float64{testVec(60), testVec(60)}
	singleYs := make([][]float64, len(singles))
	singleErrs := make([]error, len(singles))
	for i := range panels {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			panelYs[i], panelErrs[i] = g.MulVecs(context.Background(), "m", panels[i])
		}(i)
	}
	for i := range singles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			singleYs[i], singleErrs[i] = g.MulVec(context.Background(), "m", singles[i])
		}(i)
	}
	wg.Wait()
	for i, err := range panelErrs {
		if err != nil {
			t.Fatalf("panel %d: %v", i, err)
		}
		check(panels[i], panelYs[i])
	}
	for i, err := range singleErrs {
		if err != nil {
			t.Fatalf("single %d: %v", i, err)
		}
		check([][]float64{singles[i]}, [][]float64{singleYs[i]})
	}

	// A panel wider than BatchMax is one request and must be served whole.
	wide := mkPanel(7, 300)
	ys, err := g.MulVecs(context.Background(), "m", wide)
	if err != nil {
		t.Fatalf("wide panel: %v", err)
	}
	check(wide, ys)

	// An empty panel has no well-formed reply.
	var pe *formats.PanelError
	if _, err := g.MulVecs(context.Background(), "m", nil); !errors.As(err, &pe) {
		t.Fatalf("empty panel: err = %v, want *formats.PanelError", err)
	}
	// A misshapen member is a DimError.
	var de *formats.DimError
	if _, err := g.MulVecs(context.Background(), "m", [][]float64{testVec(60), testVec(59)}); !errors.As(err, &de) {
		t.Fatalf("ragged panel: err = %v, want *formats.DimError", err)
	}
}

// TestBatcherSingleUnderLowLoad checks the low-load path: strictly
// sequential requests never wait for company — five of them finish well
// inside one gather window — and every dispatch is a single-vector
// multiply.
func TestBatcherSingleUnderLowLoad(t *testing.T) {
	leakcheck.Check(t)
	const window = time.Second
	g := NewRegistry(Config{Workers: 2, BatchMax: 8, BatchWindow: window}, nil)
	defer g.Close()
	m := testmat.Random[float64](30, 30, 0.2, 8)
	if _, err := g.RegisterMatrix("m", m); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := g.MulVec(context.Background(), "m", testVec(30)); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took >= window/2 {
		t.Fatalf("5 sequential requests took %v under a %v window: a lone request waited for company", took, window)
	}
	if mean := g.in.MeanBatch(); mean != 1 {
		t.Fatalf("mean batch size = %g under sequential load, want exactly 1", mean)
	}
}

// TestBatcherSheds fills the bounded queue behind a slow kernel and
// checks admission control: excess requests fail fast with
// ErrOverloaded and the shed counter records them.
func TestBatcherSheds(t *testing.T) {
	leakcheck.Check(t)
	g := NewRegistry(Config{Workers: 1, BatchMax: 1, QueueDepth: 2}, nil)
	defer g.Close()
	m := testmat.Random[float64](20, 20, 0.3, 9)
	inst, err := buildCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RegisterInstance("slow", &slowInst[float64]{Instance: inst, d: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	const clients = 12
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = g.MulVec(context.Background(), "slow", testVec(20))
		}(c)
	}
	wg.Wait()
	var ok, shed int
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok = %d, shed = %d: want both nonzero (queue depth 2, %d clients)", ok, shed, clients)
	}
	if got := g.in.reqShed.Value(); got != uint64(shed) {
		t.Fatalf("shed counter = %d, want %d", got, shed)
	}
}

// TestBatcherCancellationMidBatch cancels one request while it waits in
// the queue behind an in-flight panel: the canceled request returns
// context.Canceled at once, the loop drops it before dispatch, the
// survivors gathered with it compute exact results as one panel, and
// the pool is not poisoned for later traffic.
func TestBatcherCancellationMidBatch(t *testing.T) {
	leakcheck.Check(t)
	g := NewRegistry(Config{Workers: 2, BatchMax: 4, QueueDepth: 16}, nil)
	t.Cleanup(g.Close)
	m := testmat.Random[float64](50, 40, 0.2, 10)
	release := holdLoop(t, g, "m", m)

	ctx, cancel := context.WithCancel(context.Background())
	canceledErr := make(chan error, 1)
	go func() {
		_, err := g.MulVec(ctx, "m", testVec(40))
		canceledErr <- err
	}()
	// Three survivors queue beside it and must be exact.
	var wg sync.WaitGroup
	errs := make([]error, 3)
	results := make([][]float64, 3)
	xs := make([][]float64, 3)
	for c := range errs {
		xs[c] = testVec(40)
		xs[c][1] = float64(100 + c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = g.MulVec(context.Background(), "m", xs[c])
		}(c)
	}
	waitFor(t, "all four requests queued", func() bool { return g.in.queueDepth.Value() == 4 })
	cancel()
	if err := <-canceledErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request: err = %v, want context.Canceled", err)
	}
	if err := release(); err != nil {
		t.Fatalf("held request: %v", err)
	}
	wg.Wait()
	for c := range errs {
		if errs[c] != nil {
			t.Fatalf("survivor %d: %v", c, errs[c])
		}
		want := refMul(m, xs[c])
		for i := range want {
			if math.Abs(results[c][i]-want[i]) > 1e-12 {
				t.Fatalf("survivor %d: y[%d] = %g, want %g", c, i, results[c][i], want[i])
			}
		}
	}
	// The held k=1 multiply, then the survivors as one k=3 panel: the
	// canceled request was gathered with them but never reached the kernel.
	if n, sum := g.in.batchSize.Count(), g.in.batchSize.Sum(); n != 2 || sum != 4 {
		t.Fatalf("%d dispatches of %g vectors in all, want the held k=1 and one k=3 panel", n, sum)
	}
	if n := g.in.reqCanceled.Value(); n == 0 {
		t.Fatal("canceled counter not incremented")
	}

	// The shared panel path is still healthy.
	if _, err := g.MulVec(context.Background(), "m", testVec(40)); err != nil {
		t.Fatalf("pool poisoned by cancellation: %v", err)
	}
}

// TestBatcherExpiredDeadlineDropped submits with an already-expired
// context: the request must come back with the deadline error, not a
// computed result, and must not occupy a panel slot.
func TestBatcherExpiredDeadlineDropped(t *testing.T) {
	leakcheck.Check(t)
	g := NewRegistry(Config{Workers: 1, BatchMax: 4, BatchWindow: time.Millisecond}, nil)
	defer g.Close()
	m := testmat.Random[float64](20, 20, 0.3, 12)
	if _, err := g.RegisterMatrix("m", m); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := g.MulVec(ctx, "m", testVec(20)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want DeadlineExceeded", err)
	}
}

// TestBatcherDrainShedsQueue is the shutdown contract at the batcher
// level: the in-flight batch completes with real results, everything
// still queued is shed with ErrOverloaded, and close leaves no
// goroutines (leakcheck).
func TestBatcherDrainShedsQueue(t *testing.T) {
	leakcheck.Check(t)
	g := NewRegistry(Config{Workers: 2, BatchMax: 1, QueueDepth: 8}, nil)
	m := testmat.Random[float64](30, 30, 0.2, 13)
	inst, err := buildCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RegisterInstance("slow", &slowInst[float64]{Instance: inst, d: 60 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	firstErr := make(chan error, 1)
	go func() {
		_, err := g.MulVec(context.Background(), "slow", testVec(30))
		firstErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // first request is now executing

	const queued = 3
	var wg sync.WaitGroup
	queuedErrs := make([]error, queued)
	for c := 0; c < queued; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, queuedErrs[c] = g.MulVec(context.Background(), "slow", testVec(30))
		}(c)
	}
	time.Sleep(10 * time.Millisecond) // they are enqueued behind the slow batch
	g.Close()
	wg.Wait()

	if err := <-firstErr; err != nil {
		t.Fatalf("in-flight request not drained: %v", err)
	}
	for c, err := range queuedErrs {
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("queued request %d: err = %v, want ErrOverloaded", c, err)
		}
	}
	if d := g.in.queueDepth.Value(); d != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", d)
	}
}
