package main

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// errWrong marks a response that failed the correctness check.
var errWrong = errors.New("wrong result")

// op issues request i inside the root span sp and returns a check of its
// result. The request is timed up to op's return; the check runs after,
// so correctness checking never counts as latency.
type op func(i int, sp *active) (check func() error, err error)

// sample is what one load phase observed.
type sample struct {
	lat      []time.Duration // successful requests only
	lag      []time.Duration // how late each request was sent
	sent     int
	failed   int // errors, shed requests and wrong results
	wrong    int // wrong results alone
	elapsed  time.Duration
	firstErr error
}

func (s *sample) record(lat, lag time.Duration, err error) {
	s.sent++
	s.lag = append(s.lag, lag)
	switch {
	case err == nil:
		s.lat = append(s.lat, lat)
		return
	case errors.Is(err, errWrong):
		s.wrong++
	}
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *sample) merge(o *sample) {
	s.lat = append(s.lat, o.lat...)
	s.lag = append(s.lag, o.lag...)
	s.sent += o.sent
	s.failed += o.failed
	s.wrong += o.wrong
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// closedLoop runs clients callers that each send their next request as
// soon as the previous one has been answered. A client's lag is the gap
// between one answer and its next send.
func closedLoop(tr *tracer, clients int, dur time.Duration, name string, fn op) *sample {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
		out  sample
	)
	start := time.Now()
	stop := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s sample
			prev := time.Now()
			for {
				t0 := time.Now()
				if !t0.Before(stop) {
					break
				}
				i := int(next.Add(1) - 1)
				sp := tr.root(name, "loadgen")
				check, err := fn(i, sp)
				lat := time.Since(t0)
				sp.end()
				if err == nil && check != nil {
					err = check()
				}
				s.record(lat, t0.Sub(prev), err)
				prev = time.Now()
			}
			mu.Lock()
			out.merge(&s)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return &out
}

// openLoop sends request i at start+arrivals[i] whether or not earlier
// requests have been answered, each from its own goroutine (one simulated
// user per request). Latency is timed from the due time, so a stall also
// charges the requests it delays.
func openLoop(tr *tracer, arrivals []time.Duration, name string, fn op) *sample {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		out sample
	)
	start := time.Now()
	for i, due := range arrivals {
		at := start.Add(due)
		time.Sleep(time.Until(at))
		lag := time.Since(at)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.root(name, "loadgen")
			check, err := fn(i, sp)
			lat := time.Since(at)
			sp.end()
			if err == nil && check != nil {
				err = check()
			}
			mu.Lock()
			out.record(lat, lag, err)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return &out
}

// poissonArrivals draws a Poisson arrival process of the given mean rate
// over dur, conditioned on its count: round(rate*dur) uniform times,
// sorted. Fixing the count keeps throughput from varying with the seed.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := max(int(rate*dur.Seconds()+0.5), 1)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// evenArrivals spaces round(rate*dur) requests evenly over dur.
func evenArrivals(rate float64, dur time.Duration) []time.Duration {
	n := max(int(rate*dur.Seconds()+0.5), 1)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}
