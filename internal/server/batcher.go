package server

import (
	"context"
	"time"

	"blockspmv/internal/batch"
	"blockspmv/internal/formats"
	"blockspmv/internal/parallel"
)

// request is one admitted MulVec, MulVecs or update request travelling
// through a batcher: a single x/y vector pair, a k-wide panel in xs/ys
// (xs non-nil marks the panel form), or a mutation closure in apply.
// Updates ride the same queue as multiplies so the loop goroutine — the
// single owner of the pool — serializes them against whole panels: a
// multiply never observes a half-applied batch, and every multiply
// queued after an update sees it.
type request struct {
	ctx   context.Context
	x     []float64
	y     []float64 // result, written by the batch loop before done is signalled
	xs    [][]float64
	ys    [][]float64
	apply func() error // overlay mutation, run on the loop between panels
	enq   time.Time
	// done carries the request's outcome. Buffered so the batch loop
	// never blocks on a caller that gave up (cancellation mid-batch).
	done chan error
}

// width is the number of right-hand sides the request contributes to a
// panel; updates contribute none, which closes the panel: requests
// behind an update must observe its effect, so they wait for the next
// dispatch.
func (r *request) width() int {
	if r.apply != nil {
		return 0
	}
	if r.xs != nil {
		return len(r.xs)
	}
	return 1
}

// batcher coalesces concurrent requests against one matrix into k-wide
// panels and dispatches them through the pooled MulVecs path, so the
// matrix stream — the resource SpMV saturates — is paid once per panel
// instead of once per request.
//
// Requests enter through a bounded channel (the admission queue); a full
// queue sheds with ErrOverloaded instead of building an unbounded
// backlog. The gather loop and its rule (hold a panel open only right
// after a shared one) live in internal/batch; its single goroutine owns
// the parallel.Mul pool (whose MulVec/MulVecs contract is
// single-caller). A panel of one request goes through the plain
// single-vector MulVec, paying no panel pack/unpack.
//
// close drains rather than aborts: the in-flight batch completes and
// replies normally, every request still queued is shed with
// ErrOverloaded, then the pool is retired. A request whose context is
// canceled while queued is dropped at dispatch time (its submit already
// returned ctx.Err()); the shared panel is never poisoned by
// cancellation — only a kernel panic poisons the pool, and that reaches
// every requester of this matrix as a typed error without affecting
// other matrices, which own their own pools.
type batcher struct {
	q    *batch.Batcher[*request]
	pool *parallel.Mul[float64]
	rows int
	in   *instruments

	// panel scratch, reused by the loop goroutine only.
	xs [][]float64
	ys [][]float64
}

// newBatcher starts the batch loop over a freshly built pool. depth is
// the admission-queue bound, max the panel-width cap, window the hold
// after a shared panel; all are already defaulted by the caller.
func newBatcher(pool *parallel.Mul[float64], max int, window time.Duration, depth int, in *instruments) *batcher {
	b := &batcher{pool: pool, rows: pool.Instance().Rows(), in: in}
	b.q = batch.New(max, window, depth, batch.Hooks[*request]{
		Width: (*request).width,
		Run:   b.execute,
		Shed: func(r *request) {
			in.queueDepth.Add(-1)
			r.done <- ErrOverloaded
		},
	})
	return b
}

// submit admits one request and blocks until it is answered or ctx is
// done. The returned vector is freshly allocated per request (responses
// race with subsequent batches otherwise). Shedding — queue full or
// batcher draining — fails fast with ErrOverloaded.
func (b *batcher) submit(ctx context.Context, x []float64) ([]float64, error) {
	r := &request{ctx: ctx, x: x, y: make([]float64, b.rows)}
	if err := b.admit(ctx, r); err != nil {
		return nil, err
	}
	return r.y, nil
}

// submitPanel is the multi-RHS form of submit: one admitted request
// carrying a whole k-wide panel, so a coordinator-coalesced batch enters
// the queue — and the kernel — as a unit. A panel wider than the
// configured cap is still served in one dispatch (it is one request; the
// cap bounds coalescing of additional requests, not callers' panels).
func (b *batcher) submitPanel(ctx context.Context, xs [][]float64) ([][]float64, error) {
	ys := make([][]float64, len(xs))
	flat := make([]float64, len(xs)*b.rows)
	for l := range ys {
		ys[l] = flat[l*b.rows : (l+1)*b.rows]
	}
	r := &request{ctx: ctx, xs: xs, ys: ys}
	if err := b.admit(ctx, r); err != nil {
		return nil, err
	}
	return r.ys, nil
}

// submitUpdate admits a mutation closure and blocks until the loop has
// run it (or ctx is done). The closure executes on the loop goroutine
// after the panel it was gathered behind, so its effects order cleanly
// between whole multiplies.
func (b *batcher) submitUpdate(ctx context.Context, apply func() error) error {
	r := &request{ctx: ctx, apply: apply}
	return b.admit(ctx, r)
}

// admit enqueues r and blocks until it is answered or ctx is done.
func (b *batcher) admit(ctx context.Context, r *request) error {
	b.in.reqTotal.Inc()
	r.enq = time.Now()
	r.done = make(chan error, 1)
	if b.q.Submit(r) != nil { // queue full, or draining
		b.in.reqShed.Inc()
		return ErrOverloaded
	}
	b.in.queueDepth.Add(1)
	select {
	case err := <-r.done:
		b.observeReply(r, err)
		return err
	case <-ctx.Done():
		b.in.reqCanceled.Inc()
		return ctx.Err()
	}
}

// observeReply classifies a loop-delivered outcome for the counters.
func (b *batcher) observeReply(r *request, err error) {
	b.in.reqTime.Observe(time.Since(r.enq).Seconds())
	switch {
	case err == nil:
		b.in.reqOK.Inc()
	case err == ErrOverloaded:
		b.in.reqShed.Inc()
	case err == context.Canceled || err == context.DeadlineExceeded:
		b.in.reqCanceled.Inc()
	default:
		b.in.reqPanic.Inc()
	}
}

// execute dispatches one gathered panel: canceled requests are dropped
// (their submit already returned), one live request goes through the
// single-vector path, several go through one MulVecs panel, and a
// trailing update (it closed the panel) runs after the multiply so the
// requests gathered before it still see the pre-update matrix. Every
// live request receives its own outcome — nil, the typed pool error, or
// the update's error.
func (b *batcher) execute(panel []*request) {
	now := time.Now()
	b.in.queueDepth.Add(-int64(len(panel)))
	live := panel[:0]
	var update *request
	for _, r := range panel {
		if r.ctx.Err() != nil {
			r.done <- r.ctx.Err() // nobody may be listening; buffered
			continue
		}
		b.in.queueWait.Observe(now.Sub(r.enq).Seconds())
		if r.apply != nil {
			update = r // at most one: it closed the panel
			continue
		}
		live = append(live, r)
	}
	if len(live) > 0 {
		b.xs, b.ys = b.xs[:0], b.ys[:0]
		for _, r := range live {
			if r.xs != nil {
				b.xs = append(b.xs, r.xs...)
				b.ys = append(b.ys, r.ys...)
			} else {
				b.xs = append(b.xs, r.x)
				b.ys = append(b.ys, r.y)
			}
		}
		b.in.batchSize.Observe(float64(len(b.xs)))
		var err error
		start := time.Now()
		if len(b.xs) == 1 {
			err = b.pool.MulVec(b.xs[0], b.ys[0])
		} else {
			err = b.pool.MulVecs(b.xs, b.ys)
		}
		b.in.execTime.Observe(time.Since(start).Seconds())
		for _, r := range live {
			r.done <- err
		}
	}
	if update != nil {
		update.done <- update.apply()
	}
}

// close drains and retires the batcher: new submits shed immediately,
// the loop finishes its in-flight batch, sheds the queue and exits, and
// the pool workers are closed. Idempotent.
func (b *batcher) close() {
	b.q.Close()
	b.pool.Close()
}

// poolFor builds the pooled executor the batcher dispatches through.
func poolFor(inst formats.Instance[float64], workers int) *parallel.Mul[float64] {
	return parallel.NewMul(inst, workers, parallel.BalanceWeights)
}
