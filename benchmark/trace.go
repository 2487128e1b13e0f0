package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one request share a trace id; parent is 0 for a root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Phase  string `json:"phase"` // setup, window or probe
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	phase atomic.Value // string

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.phase.Store("setup")
	return t
}

func (t *tracer) setPhase(p string) {
	if t != nil {
		t.phase.Store(p)
	}
}

// active is an open span; end closes and records it.
type active struct {
	t *tracer
	s span
}

// root opens the first span of a new trace.
func (t *tracer) root(name, layer string) *active {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return t.open(id, 0, name, layer)
}

func (t *tracer) open(trace, parent uint64, name, layer string) *active {
	return &active{t: t, s: span{
		Trace: trace, ID: t.ids.Add(1), Parent: parent, Name: name, Layer: layer,
		Phase: t.phase.Load().(string), Start: time.Since(t.t0).Nanoseconds(),
	}}
}

// child opens a span under a; a nil parent yields nil.
func (a *active) child(name, layer string) *active {
	if a == nil {
		return nil
	}
	return a.t.open(a.s.Trace, a.s.ID, name, layer)
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.s.End = time.Since(a.t.t0).Nanoseconds()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per layer, each window span's duration minus the part
// of it that its children cover. Children that ran concurrently (the
// kernel partitions under one solve) are merged before subtracting, so a
// layer's self time never goes negative; the children's own self times
// then add up thread time, not wall time.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Phase == "window" && s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Phase != "window" {
			continue
		}
		self := s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		out[s.Layer] += time.Duration(max(self, 0))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi).
func covered(ch []span, lo, hi int64) int64 {
	sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
	var total, curS, curE int64
	open := false
	for _, c := range ch {
		s, e := max(c.Start, lo), min(c.End, hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// printSelfTimes writes the per-layer self-time table of one workload.
func printSelfTimes(w io.Writer, workload string, self map[string]time.Duration, requests int) {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "self time by layer, %s, %d requests in the window:\n", workload, requests)
	for _, l := range layers {
		per := 0.0
		if requests > 0 {
			per = ms(self[l]) / float64(requests)
		}
		fmt.Fprintf(w, "  %-8s %10.1f ms total  %9.4f ms/request\n", l, ms(self[l]), per)
	}
}
