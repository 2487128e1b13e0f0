package shard

import (
	"context"
	"time"

	"blockspmv/internal/batch"
	"blockspmv/internal/server"
)

// caller is one MulVec invocation waiting to be coalesced into a panel.
type caller struct {
	ctx context.Context
	x   []float64
	y   []float64 // result, written through the panel scatter before done fires
	// done carries the caller's outcome. Buffered so the batch loop never
	// blocks on a caller that gave up (cancellation mid-panel).
	done chan error
}

// batcher is the coordinator-side mirror of internal/server's request
// batcher, over the same gather loop (internal/batch): concurrent
// MulVec callers are coalesced into ONE panel of up to BatchMax
// right-hand sides — one SpS2 frame per shard per panel instead of one
// SpS1 frame per shard per call, so each shard streams its row block
// once for the whole panel. The difference from the server batcher is
// what the panel saves: there it amortizes the local matrix stream,
// here it also amortizes the fan-out — frames, connections, retries,
// hedges and breaker accounting all operate per panel attempt, not per
// caller.
//
// Callers enter through a bounded channel; a full queue sheds with
// server.ErrOverloaded rather than building an unbounded backlog. A
// caller whose context is canceled while queued is dropped at dispatch
// (its submit already returned ctx.Err()) and its rows never reach the
// wire; the siblings in the same panel are unaffected. The panel's
// deadline is the tightest live member budget — no caller's rows may be
// computed past its interest, and the whole panel shares one set of
// frames — propagated to workers via Spmvd-Timeout inside the scatter.
// The outcome is all-or-nothing per caller: every live member of a
// panel receives either its complete bit-for-bit result or the panel's
// typed error.
//
// close drains rather than aborts: the in-flight panel completes and
// replies normally, every caller still queued is shed with ErrClosed,
// then the loop exits.
type batcher struct {
	c *Coordinator
	q *batch.Batcher[*caller]

	// panel scratch, reused by the loop goroutine only.
	xs [][]float64
	ys [][]float64
}

// newBatcher starts the gather loop. max is the panel-width cap, window
// the hold after a shared panel, depth the admission-queue bound; all
// already defaulted by Options.withDefaults.
func newBatcher(c *Coordinator, max int, window time.Duration, depth int) *batcher {
	b := &batcher{c: c}
	b.q = batch.New(max, window, depth, batch.Hooks[*caller]{
		Width: func(*caller) int { return 1 },
		Run:   b.dispatch,
		Shed:  func(cl *caller) { cl.done <- ErrClosed },
	})
	return b
}

// submit admits one caller and blocks until its panel is answered or ctx
// is done. Queue full sheds with server.ErrOverloaded; a closing
// coordinator answers ErrClosed.
func (b *batcher) submit(ctx context.Context, x []float64) ([]float64, error) {
	cl := &caller{ctx: ctx, x: x, y: make([]float64, b.c.rows), done: make(chan error, 1)}
	switch b.q.Submit(cl) {
	case batch.ErrClosed:
		return nil, ErrClosed
	case batch.ErrFull:
		b.c.in.shed.Inc()
		return nil, server.ErrOverloaded
	}
	select {
	case err := <-cl.done:
		if err != nil {
			return nil, err
		}
		return cl.y, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// dispatch drops canceled callers pre-flight, scatters the survivors as
// one panel under the tightest member deadline, and delivers the shared
// outcome to every live member.
func (b *batcher) dispatch(panel []*caller) {
	live := panel[:0]
	for _, cl := range panel {
		if cl.ctx.Err() != nil {
			cl.done <- cl.ctx.Err() // nobody may be listening; buffered
			continue
		}
		live = append(live, cl)
	}
	if len(live) == 0 {
		return
	}
	b.xs, b.ys = b.xs[:0], b.ys[:0]
	for _, cl := range live {
		b.xs = append(b.xs, cl.x)
		b.ys = append(b.ys, cl.y)
	}
	// The panel deadline is the minimum of the live members' budgets: the
	// panel shares one set of wire frames, and no member's rows may be
	// computed past its interest. Members without a deadline fall back to
	// the coordinator's Timeout, applied inside scatter.
	pctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if dl, ok := minDeadline(live); ok {
		pctx, cancel = context.WithDeadline(pctx, dl)
	}
	err := b.c.scatter(pctx, b.xs, b.ys)
	cancel()
	for _, cl := range live {
		cl.done <- err
	}
}

// minDeadline returns the earliest deadline among the live callers, and
// whether any caller has one.
func minDeadline(live []*caller) (time.Time, bool) {
	var min time.Time
	ok := false
	for _, cl := range live {
		if dl, has := cl.ctx.Deadline(); has && (!ok || dl.Before(min)) {
			min, ok = dl, true
		}
	}
	return min, ok
}

// close drains and retires the batcher: new submits fail with ErrClosed,
// the loop finishes its in-flight panel, sheds the queue and exits.
// Idempotent.
func (b *batcher) close() { b.q.Close() }
