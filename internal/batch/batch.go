// Package batch is the gather loop both serving batchers share: the
// registry's per-matrix batcher (internal/server) and the row-shard
// coordinator's (internal/shard). Callers queue items on a bounded
// admission queue; one loop goroutine coalesces them into panels and
// hands each panel to the caller's Run hook. Request types, typed
// errors, instruments and the dispatch itself stay with the caller.
//
// The gather rule: when the loop takes an item it first takes whatever
// else is already queued, without waiting, until the panel is max wide
// or an item of width 0 (an update) closes it. It then holds the panel
// open for more, for at most one window, only if the previous panel
// carried more than one request and was dispatched less than one window
// ago; otherwise it dispatches at once. A panel of one lone update is
// not counted as a previous panel. Requests that arrive together — such
// as closed-loop callers that one shared panel answered, resubmitting
// together — are still caught, while an independent arrival does not
// wait for company that rarely comes. Waiting is dear: on Linux an idle
// Go process rounds any timer under 1 ms up to a whole millisecond.
package batch

import (
	"errors"
	"sync"
	"time"
)

// Submit's refusals, returned bare: the queue was at its bound, or
// Close had begun.
var (
	ErrFull   = errors.New("batch: queue full")
	ErrClosed = errors.New("batch: closed")
)

// Hooks are the caller's side of a Batcher. All three run on the loop
// goroutine, one call at a time.
type Hooks[T any] struct {
	// Width is the number of right-hand sides an item adds to a panel;
	// 0 closes the panel: the item is its last member, and items queued
	// behind it wait for the next dispatch.
	Width func(T) int
	// Run dispatches one panel and replies to each member. The slice is
	// loop scratch: Run may reorder it, and must not retain it.
	Run func(panel []T)
	// Shed replies to an item still queued when Close begins.
	Shed func(T)
}

// Batcher owns the bounded queue and the goroutine that drains it.
type Batcher[T any] struct {
	max    int
	window time.Duration
	hooks  Hooks[T]

	ch   chan T
	stop chan struct{}
	done chan struct{} // loop exited

	mu     sync.RWMutex // guards closed against in-flight submits
	closed bool

	// Loop-owned: the panel scratch, and whether the last dispatch
	// carried more than one request, and when it ended.
	panel  []T
	shared bool
	ended  time.Time
}

// New starts the loop. max caps the summed width a panel coalesces (a
// single item wider than max still goes alone), window bounds how long
// a panel is held open for company, and depth bounds the queue.
func New[T any](max int, window time.Duration, depth int, h Hooks[T]) *Batcher[T] {
	b := &Batcher[T]{
		max:    max,
		window: window,
		hooks:  h,
		ch:     make(chan T, depth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go b.loop()
	return b
}

// Submit queues it without blocking. An accepted item always reaches
// Run or Shed; a refused one reaches neither.
func (b *Batcher[T]) Submit(it T) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrClosed
	}
	select {
	case b.ch <- it:
		return nil
	default:
		return ErrFull
	}
}

// Close drains rather than aborts: new submits fail with ErrClosed, the
// in-flight panel completes, everything still queued goes to Shed, and
// Close returns once the loop has exited. Idempotent.
func (b *Batcher[T]) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.stop)
	}
	b.mu.Unlock()
	<-b.done
}

// loop gathers, dispatches and records the dispatch, until stop.
func (b *Batcher[T]) loop() {
	defer close(b.done)
	for {
		// Prefer the stop signal over more work: once draining begins the
		// queue is shed, not served (select alone would pick at random).
		select {
		case <-b.stop:
			b.shedQueued()
			return
		default:
		}
		select {
		case <-b.stop:
			b.shedQueued()
			return
		case it := <-b.ch:
			multiply := b.hooks.Width(it) > 0
			b.gather(it)
			b.hooks.Run(b.panel)
			// A lone closing item (an update) says nothing about how
			// requests arrive; it keeps what the last panel recorded.
			if multiply {
				b.shared, b.ended = len(b.panel) > 1, time.Now()
			}
		}
	}
}

// gather fills b.panel from first by the package's rule. A stop signal
// ends a hold early, but the panel still runs: its members are in
// flight, and the drain contract completes in-flight work.
func (b *Batcher[T]) gather(first T) {
	b.panel = b.panel[:0]
	var expired <-chan time.Time // armed when the queue first runs dry
	for w, it := 0, first; ; {
		b.panel = append(b.panel, it)
		n := b.hooks.Width(it)
		if w += n; n == 0 || w >= b.max {
			return
		}
		select {
		case it = <-b.ch:
			continue
		default:
		}
		if expired == nil {
			if !b.shared || time.Since(b.ended) >= b.window {
				return
			}
			t := time.NewTimer(b.window)
			defer t.Stop()
			expired = t.C
		}
		select {
		case it = <-b.ch:
		case <-expired:
			return
		case <-b.stop:
			return
		}
	}
}

// shedQueued hands everything still queued to Shed. Close sets the
// closed flag under the write lock before it signals stop, so no submit
// can enqueue afterwards and draining to empty is final.
func (b *Batcher[T]) shedQueued() {
	for {
		select {
		case it := <-b.ch:
			b.hooks.Shed(it)
		default:
			return
		}
	}
}
