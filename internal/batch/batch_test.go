package batch

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"blockspmv/internal/leakcheck"
)

// item is a test request: its id, its panel width (0 closes the panel),
// and an optional gate that holds the loop inside Run until closed.
type item struct {
	id, width int
	gate      chan struct{}
}

// rig is a Batcher over items whose Run reports each panel's ids — before
// waiting on any member's gate — and whose Shed reports shed ids.
type rig struct {
	b      *Batcher[*item]
	panels chan []int
	shed   chan int
}

func newRig(t *testing.T, max int, window time.Duration, depth int) *rig {
	t.Helper()
	r := &rig{panels: make(chan []int, 64), shed: make(chan int, 64)}
	r.b = New(max, window, depth, Hooks[*item]{
		Width: func(it *item) int { return it.width },
		Run: func(panel []*item) {
			ids := make([]int, len(panel))
			for i, it := range panel {
				ids[i] = it.id
			}
			r.panels <- ids
			for _, it := range panel {
				if it.gate != nil {
					<-it.gate
				}
			}
		},
		Shed: func(it *item) { r.shed <- it.id },
	})
	t.Cleanup(r.b.Close)
	return r
}

func (r *rig) submit(t *testing.T, it *item) {
	t.Helper()
	if err := r.b.Submit(it); err != nil {
		t.Fatalf("submit %d: %v", it.id, err)
	}
}

// next waits for the next dispatched panel and checks its members.
func (r *rig) next(t *testing.T, want ...int) {
	t.Helper()
	select {
	case got := <-r.panels:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("panel %v, want %v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no panel dispatched, want %v", want)
	}
}

// quiet checks that no panel is dispatched for d.
func (r *rig) quiet(t *testing.T, d time.Duration) {
	t.Helper()
	select {
	case got := <-r.panels:
		t.Fatalf("panel %v dispatched at once", got)
	case <-time.After(d):
	}
}

// hold parks the loop inside Run on a lone gated item; every item
// submitted before the returned release queues behind it.
func (r *rig) hold(t *testing.T, id int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	r.submit(t, &item{id: id, width: 1, gate: gate})
	r.next(t, id)
	return func() { close(gate) }
}

// TestLoneRequestGoesAtOnce: with nothing shared before it, a request
// is dispatched without waiting out the window.
func TestLoneRequestGoesAtOnce(t *testing.T) {
	leakcheck.Check(t)
	r := newRig(t, 8, time.Second, 4)
	for id := 1; id <= 2; id++ {
		start := time.Now()
		r.submit(t, &item{id: id, width: 1})
		r.next(t, id)
		if took := time.Since(start); took >= 100*time.Millisecond {
			t.Fatalf("lone request %d took %v under a 1s window", id, took)
		}
	}
}

// TestHoldOnlyAfterSharedPanel walks the rule: requests already queued
// are drained into one panel without waiting; a request taken within
// the window after that shared panel — even with a lone update between
// them — is held and joins the next panel; once the window has passed,
// the next lone request goes at once.
func TestHoldOnlyAfterSharedPanel(t *testing.T) {
	leakcheck.Check(t)
	const window = 300 * time.Millisecond
	r := newRig(t, 2, window, 8)

	release := r.hold(t, 1)
	r.submit(t, &item{id: 2, width: 1})
	r.submit(t, &item{id: 3, width: 1})
	release()
	r.next(t, 2, 3) // drained, not held: the held panel was lone

	r.submit(t, &item{id: 4, width: 0})
	r.next(t, 4)
	r.submit(t, &item{id: 5, width: 1})
	r.quiet(t, window/6)
	r.submit(t, &item{id: 6, width: 1})
	r.next(t, 5, 6)

	time.Sleep(window + window/6)
	start := time.Now()
	r.submit(t, &item{id: 7, width: 1})
	r.next(t, 7)
	if took := time.Since(start); took >= window/2 {
		t.Fatalf("request after the window took %v: it was held", took)
	}
}

// TestUpdateClosesPanel: an item of width 0 is the last member of its
// panel, a panel it opens holds only it, and items behind it wait for
// the next dispatch.
func TestUpdateClosesPanel(t *testing.T) {
	leakcheck.Check(t)
	r := newRig(t, 4, time.Second, 8)
	release := r.hold(t, 1)
	r.submit(t, &item{id: 2, width: 1})
	r.submit(t, &item{id: 3, width: 0})
	r.submit(t, &item{id: 4, width: 0})
	r.submit(t, &item{id: 5, width: 1})
	r.submit(t, &item{id: 6, width: 3})
	release()
	r.next(t, 2, 3)
	r.next(t, 4)
	r.next(t, 5, 6)
}

// TestCloseDrainsAndSheds: Close waits for the in-flight panel, sheds
// everything still queued, and refuses later submits; a full queue
// refuses with ErrFull.
func TestCloseDrainsAndSheds(t *testing.T) {
	leakcheck.Check(t)
	r := newRig(t, 8, time.Second, 2)
	release := r.hold(t, 1)
	r.submit(t, &item{id: 2, width: 1})
	r.submit(t, &item{id: 3, width: 1})
	if err := r.b.Submit(&item{id: 4, width: 1}); !errors.Is(err, ErrFull) {
		t.Fatalf("submit to a full queue: %v, want ErrFull", err)
	}

	closed := make(chan struct{})
	go func() { r.b.Close(); close(closed) }()
	// The queue is full, so each probe is refused (ErrFull) until Close
	// has begun (ErrClosed); none is queued.
	for r.b.Submit(&item{id: 5, width: 1}) != ErrClosed {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a panel in flight")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-closed
	if len(r.panels) != 0 {
		t.Fatalf("a queued item was served after Close: %v", <-r.panels)
	}
	if got := []int{<-r.shed, <-r.shed}; !reflect.DeepEqual(got, []int{2, 3}) || len(r.shed) != 0 {
		t.Fatalf("shed %v (+%d more), want [2 3]", got, len(r.shed))
	}
}
