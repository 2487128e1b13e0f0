package shard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/faultcheck"
	"blockspmv/internal/leakcheck"
	"blockspmv/internal/server"
	"blockspmv/internal/testmat"
)

// TestBreakerAbandonRearmsProbe exercises the half-open probe slot
// directly: an abandoned probe (the request was canceled, so neither
// success nor failure runs) must re-arm the slot, or allow would refuse
// the replica forever.
func TestBreakerAbandonRearmsProbe(t *testing.T) {
	b := newBreaker(1, 10*time.Millisecond)

	// Abandon on a closed breaker is a no-op.
	b.abandon()
	if !b.allow() {
		t.Fatal("closed breaker refuses after abandon")
	}

	if opened := b.failure(); !opened {
		t.Fatal("first failure did not open the breaker")
	}
	time.Sleep(15 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if b.allow() {
		t.Fatal("second probe admitted while the first is in flight")
	}

	// The probe's request is canceled: without abandon, probing would
	// stay true and every future allow would refuse.
	b.abandon()
	if b.allow() {
		t.Fatal("abandon admitted a probe before a fresh cooldown")
	}
	time.Sleep(15 * time.Millisecond)
	if !b.allow() {
		t.Fatal("abandoned probe wedged the breaker: no probe after a fresh cooldown")
	}
	b.success()
	if !b.allow() {
		t.Fatal("breaker did not close after the probe succeeded")
	}
}

// TestCanceledProbeDoesNotWedgeShard reproduces the reported wedge end
// to end: shard 0's breaker is open and its half-open probe is in
// flight against a slow worker when shard 1 fails, canceling the whole
// call — and with it the probe. The canceled probe must re-arm the
// breaker so that once both workers heal, the coordinator recovers;
// without abandon, shard 0 (one replica, as RegisterShards deploys)
// would refuse with errBreakersOpen forever.
func TestCanceledProbeDoesNotWedgeShard(t *testing.T) {
	leakcheck.Check(t)
	m := testmat.Random[float64](200, 80, 0.1, 29)
	m.Finalize()
	w, addr := startWorker(t, server.Config{})
	var proxies [2]*faultcheck.Proxy
	var specs []Spec
	for i, pr := range [][2]int{{0, 100}, {100, 200}} {
		name := []string{"lo", "hi"}[i]
		sub := SliceRows(m, pr[0], pr[1])
		if _, err := w.Registry().RegisterShardInstance(name, csr.FromCOO(sub, blocks.Scalar), pr[0], pr[1]); err != nil {
			t.Fatal(err)
		}
		p, err := faultcheck.NewProxy(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		proxies[i] = p
		specs = append(specs, Spec{Row0: pr[0], Row1: pr[1],
			Replicas: []Replica{{Addr: p.Addr(), Matrix: name}}})
	}
	c, err := New(80, specs, Options{
		Transport:       noKeepAlive(),
		MaxAttempts:     1,
		BreakerAfter:    1,
		BreakerCooldown: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	x := testVec(80)

	// Open shard 0's breaker.
	proxies[0].SetPlans(faultcheck.Plan{Drop: true})
	if _, err := c.MulVec(ctx, x); !errors.Is(err, ErrShardDown) {
		t.Fatalf("drop call: %v", err)
	}
	time.Sleep(40 * time.Millisecond) // cooldown: the next call probes

	// The probe stalls on a delayed wire while shard 1 fails fast — the
	// coordinator cancels the call, abandoning the probe mid-flight.
	proxies[0].SetPlans(faultcheck.Plan{Delay: 5 * time.Second})
	proxies[1].SetPlans(faultcheck.Plan{Drop: true})
	if _, err := c.MulVec(ctx, x); !errors.Is(err, ErrShardDown) {
		t.Fatalf("abandoned-probe call: %v", err)
	}

	// Both workers heal. The breaker must admit a fresh probe after the
	// next cooldown; poll because the abandoned probe's goroutine re-arms
	// asynchronously with the failed call's return.
	proxies[0].SetPlans(faultcheck.Plan{})
	proxies[1].SetPlans(faultcheck.Plan{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.MulVec(ctx, x)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrShardDown) {
			t.Fatalf("healed call: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker wedged: healed workers still refused: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTerminal4xxDoesNotTripBreaker: the remote judging the request bad
// (4xx) is the request's fault, not the replica's; it must not open a
// healthy replica's breaker. With BreakerAfter 1, a single miscounted
// 404 would wedge the shard behind errBreakersOpen.
func TestTerminal4xxDoesNotTripBreaker(t *testing.T) {
	leakcheck.Check(t)
	_, addr := startWorker(t, server.Config{})
	c, err := New(10, []Spec{{Row0: 0, Row1: 20,
		Replicas: []Replica{{Addr: addr, Matrix: "unregistered"}}}}, Options{
		Transport:    noKeepAlive(),
		MaxAttempts:  1,
		BreakerAfter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	x := testVec(10)
	for i := 0; i < 3; i++ {
		_, err := c.MulVec(context.Background(), x)
		var re *RemoteError
		if !errors.As(err, &re) || re.Status != http.StatusNotFound {
			t.Fatalf("call %d: err = %v, want remote 404 (breaker must stay closed)", i, err)
		}
	}
}

// TestOversizedReplyRejected: a worker replying 200 with a body past
// the exact partial-frame length of a k=1 panel must yield a typed
// error, not an unbounded buffer; the coordinator stops reading at the
// cap.
func TestOversizedReplyRejected(t *testing.T) {
	leakcheck.Check(t)
	var served atomic.Int64
	rows := 20
	limit := server.PartialPanelLen(rows, 1)
	if limit < 4096 {
		limit = 4096 // the coordinator's floor for error JSON bodies
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Header().Set("Content-Type", server.ContentTypePanelPartial)
		w.Write(make([]byte, limit+64))
	}))
	defer ts.Close()

	c, err := New(10, []Spec{{Row0: 0, Row1: rows,
		Replicas: []Replica{{Addr: ts.Listener.Addr().String(), Matrix: "m"}}}}, Options{
		Transport:   noKeepAlive(),
		MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.MulVec(context.Background(), testVec(10))
	if !errors.Is(err, ErrShardDown) || !errors.Is(err, server.ErrWireTooLarge) {
		t.Fatalf("oversized reply: err = %v, want ErrShardDown wrapping ErrWireTooLarge", err)
	}
	if served.Load() == 0 {
		t.Fatal("stub worker never served")
	}
}
