package shard

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/faultcheck"
	"blockspmv/internal/leakcheck"
	"blockspmv/internal/mat"
	"blockspmv/internal/server"
	"blockspmv/internal/testmat"
)

// chaosRig is one worker serving a whole small matrix as a single
// shard, fronted by a chaos proxy; the coordinator sees only the proxy.
type chaosRig struct {
	m     *mat.COO[float64]
	x     []float64
	want  []float64 // single-node bitwise reference
	proxy *faultcheck.Proxy
	coord *Coordinator
}

// newChaosRig wires worker <- proxy <- coordinator with the given fault
// schedule and coordinator options.
func newChaosRig(t *testing.T, opts Options, plans ...faultcheck.Plan) *chaosRig {
	t.Helper()
	m := testmat.Random[float64](200, 80, 0.1, 17)
	m.Finalize()
	w, addr := startWorker(t, server.Config{})
	inst := csr.FromCOO(m, blocks.Scalar)
	if _, err := w.Registry().RegisterShardInstance("all", inst, 0, 200); err != nil {
		t.Fatal(err)
	}
	proxy, err := faultcheck.NewProxy(addr, plans...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)

	if opts.Transport == nil {
		opts.Transport = noKeepAlive()
	}
	c, err := New(80, []Spec{{Row0: 0, Row1: 200, Replicas: []Replica{{Addr: proxy.Addr(), Matrix: "all"}}}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	x := testVec(80)
	want := make([]float64, 200)
	inst.Mul(x, want)
	return &chaosRig{m: m, x: x, want: want, proxy: proxy, coord: c}
}

func (r *chaosRig) assertBitExact(t *testing.T, got []float64) {
	t.Helper()
	for i := range r.want {
		if math.Float64bits(got[i]) != math.Float64bits(r.want[i]) {
			t.Fatalf("y[%d] = %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(r.want[i]))
		}
	}
}

// counter reads a labeled counter from the coordinator's registry.
func counter(t *testing.T, c *Coordinator, id string) uint64 {
	t.Helper()
	v, ok := c.Metrics().Snapshot()[id]
	if !ok {
		t.Fatalf("no metric %q", id)
	}
	return v.(uint64)
}

// TestChaosRetriesHealFaults: each fault mode occupies the first
// connection of a fresh schedule; the retry path must absorb it and
// still deliver the bit-exact result, with the retry counter proving
// the fault was actually hit.
func TestChaosRetriesHealFaults(t *testing.T) {
	leakcheck.Check(t)
	rig := newChaosRig(t, Options{
		MaxAttempts:    3,
		AttemptTimeout: 300 * time.Millisecond,
		RetryBase:      time.Millisecond,
	})

	// The response is ~1.8 KB (24-byte header + 200 rows); offset 600 is
	// deep inside the partial's element bytes, past any HTTP header.
	faults := map[string]faultcheck.Plan{
		"drop":     {Drop: true},
		"truncate": {TruncateAfter: 300},
		"corrupt":  {CorruptAt: 600},
		"hang":     {HangAfter: 300},
	}
	for fname, plan := range faults {
		t.Run(fname, func(t *testing.T) {
			before := counter(t, rig.coord, `spmv_shard_retries_total{shard="0"}`)
			rig.proxy.SetPlans(plan, faultcheck.Plan{})
			got, err := rig.coord.MulVec(context.Background(), rig.x)
			if err != nil {
				t.Fatalf("%s not healed: %v", fname, err)
			}
			rig.assertBitExact(t, got)
			if after := counter(t, rig.coord, `spmv_shard_retries_total{shard="0"}`); after <= before {
				t.Fatalf("%s: no retry recorded (%d -> %d)", fname, before, after)
			}
		})
	}
}

// TestChaosRetryExhaustion: every connection drops; the call must fail
// with a DownError naming the full failed row range, never a partial or
// wrong y.
func TestChaosRetryExhaustion(t *testing.T) {
	leakcheck.Check(t)
	rig := newChaosRig(t, Options{
		MaxAttempts: 3,
		RetryBase:   time.Millisecond,
	}, faultcheck.Plan{Drop: true})

	y, err := rig.coord.MulVec(context.Background(), rig.x)
	if y != nil {
		t.Fatal("failed call returned a vector")
	}
	var down *DownError
	if !errors.As(err, &down) || !errors.Is(err, ErrShardDown) {
		t.Fatalf("err = %v, want DownError", err)
	}
	if down.Row0 != 0 || down.Row1 != 200 || down.Attempts != 3 {
		t.Fatalf("DownError = %+v", down)
	}
	if got := counter(t, rig.coord, "spmv_shard_mulvec_failed_total"); got != 1 {
		t.Fatalf("failed counter = %d", got)
	}
}

// TestChaosCorruptionNeverWrong: with corruption on EVERY connection,
// the call must error — the CRC turns silent wrongness into a typed
// failure. This is the test that fails if the checksum is removed.
func TestChaosCorruptionNeverWrong(t *testing.T) {
	leakcheck.Check(t)
	rig := newChaosRig(t, Options{
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
	}, faultcheck.Plan{CorruptAt: 600})

	_, err := rig.coord.MulVec(context.Background(), rig.x)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("corrupted stream: err = %v, want ErrShardDown", err)
	}
	if !errors.Is(err, server.ErrWireChecksum) {
		t.Fatalf("err = %v does not carry the checksum cause", err)
	}
}

// TestChaosDeadline: the proxy delays past the call budget; the error
// is typed, prompt, and carries the deadline cause.
func TestChaosDeadline(t *testing.T) {
	leakcheck.Check(t)
	rig := newChaosRig(t, Options{
		Timeout:     150 * time.Millisecond,
		MaxAttempts: 2,
	}, faultcheck.Plan{Delay: 5 * time.Second})

	start := time.Now()
	_, err := rig.coord.MulVec(context.Background(), rig.x)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline took %v to fire", d)
	}
	if !errors.Is(err, ErrShardDown) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrShardDown wrapping DeadlineExceeded", err)
	}
}

// TestChaosHedging: the primary connection hangs, the hedge fires
// against the second replica (same worker, clean path) and wins within
// the first attempt.
func TestChaosHedging(t *testing.T) {
	leakcheck.Check(t)
	m := testmat.Random[float64](120, 60, 0.1, 23)
	m.Finalize()
	w, addr := startWorker(t, server.Config{})
	inst := csr.FromCOO(m, blocks.Scalar)
	if _, err := w.Registry().RegisterShardInstance("all", inst, 0, 120); err != nil {
		t.Fatal(err)
	}
	// Replica 1 is reached through a hanging proxy; replica 2 directly.
	proxy, err := faultcheck.NewProxy(addr, faultcheck.Plan{HangAfter: 50})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)

	c, err := New(60, []Spec{{Row0: 0, Row1: 120, Replicas: []Replica{
		{Addr: proxy.Addr(), Matrix: "all"},
		{Addr: addr, Matrix: "all"},
	}}}, Options{
		Transport:      noKeepAlive(),
		HedgeAfter:     30 * time.Millisecond,
		AttemptTimeout: 10 * time.Second,
		MaxAttempts:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	x := testVec(60)
	// The round-robin cursor may pick either replica first; force the
	// straggler case by trying until the hedge counter moves, which must
	// happen within a few calls.
	want := make([]float64, 120)
	inst.Mul(x, want)
	for i := 0; i < 4; i++ {
		got, err := c.MulVec(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("call %d: y[%d] mismatch", i, j)
			}
		}
	}
	if hedges := counter(t, c, `spmv_shard_hedges_total{shard="0"}`); hedges == 0 {
		t.Fatal("no hedge launched despite a hanging replica")
	}
}

// TestChaosBreaker walks the breaker's full cycle: consecutive drops
// open it (fail-fast without network traffic), the cooldown admits a
// half-open probe, and a healed backend closes it again.
func TestChaosBreaker(t *testing.T) {
	leakcheck.Check(t)
	rig := newChaosRig(t, Options{
		MaxAttempts:     1,
		BreakerAfter:    2,
		BreakerCooldown: 50 * time.Millisecond,
	}, faultcheck.Plan{Drop: true})

	ctx := context.Background()
	// Two failures open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := rig.coord.MulVec(ctx, rig.x); !errors.Is(err, ErrShardDown) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if opened := counter(t, rig.coord, `spmv_shard_breaker_open_total{shard="0"}`); opened != 1 {
		t.Fatalf("breaker open transitions = %d, want 1", opened)
	}
	conns := rig.proxy.Conns()

	// Open breaker: the next call fails fast with no new connection.
	_, err := rig.coord.MulVec(ctx, rig.x)
	if !errors.Is(err, ErrShardDown) || !errors.Is(err, errBreakersOpen) {
		t.Fatalf("open-breaker call: %v", err)
	}
	if rig.proxy.Conns() != conns {
		t.Fatal("open breaker still dialed the replica")
	}

	// Heal the backend, wait out the cooldown: the half-open probe
	// succeeds and the breaker closes.
	rig.proxy.SetPlans(faultcheck.Plan{})
	time.Sleep(60 * time.Millisecond)
	got, err := rig.coord.MulVec(ctx, rig.x)
	if err != nil {
		t.Fatalf("post-cooldown probe: %v", err)
	}
	rig.assertBitExact(t, got)
	if got, err := rig.coord.MulVec(ctx, rig.x); err != nil || got == nil {
		t.Fatalf("closed-again breaker: %v", err)
	}
}

// TestChaosCloseDrainsInFlight: Close called mid-call waits for the
// in-flight MulVec (parked on a delayed response) to complete and
// return its full result; leakcheck then proves nothing lingers.
func TestChaosCloseDrainsInFlight(t *testing.T) {
	leakcheck.Check(t)
	rig := newChaosRig(t, Options{
		MaxAttempts: 1,
		Timeout:     10 * time.Second,
	}, faultcheck.Plan{Delay: 300 * time.Millisecond})

	type outcome struct {
		y   []float64
		err error
	}
	res := make(chan outcome, 1)
	go func() {
		y, err := rig.coord.MulVec(context.Background(), rig.x)
		res <- outcome{y, err}
	}()
	// Wait for the request to be in flight at the proxy.
	for rig.proxy.Conns() == 0 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { rig.coord.Close(); close(closed) }()

	select {
	case o := <-res:
		if o.err != nil {
			t.Fatalf("drained call failed: %v", o.err)
		}
		rig.assertBitExact(t, o.y)
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight call never completed")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	if _, err := rig.coord.MulVec(context.Background(), rig.x); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close call: %v", err)
	}
}
