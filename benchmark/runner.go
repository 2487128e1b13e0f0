package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"blockspmv/internal/formats"
	"blockspmv/internal/machine"
	"blockspmv/internal/mat"
	"blockspmv/internal/metrics"
	"blockspmv/internal/profile"
	"blockspmv/internal/server"
)

// config is one workload run.
type config struct {
	workload string
	seed     int64
	window   time.Duration // the measured window
	warmup   time.Duration
	trace    bool
	traceDir string // "" keeps spans in memory only
	tiny     bool   // smoke-test inputs
}

// setupReps is how many times each run repeats its set-up; setup_s is the
// median.
const setupReps = 7

// report is everything one workload run measured.
type report struct {
	Workload        string             `json:"workload"`
	Seed            int64              `json:"seed"`
	Trace           bool               `json:"trace"`
	Correct         bool               `json:"correct"`
	Attempted       int                `json:"attempted"`
	Failed          int                `json:"failed"`
	Selected        string             `json:"selected"`
	Iterations      int                `json:"iterations,omitempty"`
	WorkingSetBytes int64              `json:"working_set_bytes"`
	Metrics         map[string]float64 `json:"metrics"`
	SelfTimeMs      map[string]float64 `json:"self_time_ms,omitempty"`
}

// runner carries one workload run's inputs and what it measured.
type runner struct {
	cfg   config
	w     workload
	prof  *profile.Table
	mach  machine.Machine
	nproc int
	rng   *rand.Rand
	tr    *tracer
	ctx   context.Context
	log   io.Writer
	m     map[string]float64
	rep   report
	wrong int // responses that failed the correctness check
	// invalid is set when the load generator fell behind its schedule by
	// more than the workload's latency limit: the run measured the
	// generator, not the program.
	invalid error

	// The matrix and panel width the traced run probes once the workload
	// has torn its servers down.
	probeM   *mat.COO[float64]
	probeRHS int
}

func (r *runner) probeOn(m *mat.COO[float64], rhs int) { r.probeM, r.probeRHS = m, rhs }

// runWorkload runs one workload and returns its report; log receives the
// human-readable progress lines.
func runWorkload(cfg config, log io.Writer) (report, error) {
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	prof, err := pinnedProfile()
	if err != nil {
		return report{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	r := &runner{
		cfg: cfg, w: w, prof: prof, mach: prof.Machine,
		nproc: runtime.GOMAXPROCS(0),
		rng:   rand.New(rand.NewSource(cfg.seed)),
		ctx:   ctx, log: log,
		m:   make(map[string]float64),
		rep: report{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace},
	}
	for _, d := range metricDefs {
		if !d.E2E {
			r.m[d.Name] = 0
		}
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := w.run(r); err != nil {
		return r.rep, fmt.Errorf("%s: %w", w.name, err)
	}
	if r.invalid != nil {
		return r.rep, fmt.Errorf("%s: invalid run: %w", w.name, r.invalid)
	}
	if r.tr != nil {
		runtime.GC()
		if err := r.probe(r.probeM, r.probeRHS); err != nil {
			return r.rep, fmt.Errorf("%s: probe: %w", w.name, err)
		}
	}
	rss, err := peakRSS()
	if err != nil {
		return r.rep, err
	}
	r.m["rss_peak_mb"] = rss
	r.rep.Metrics = r.m
	r.rep.Correct = r.wrong == 0
	if r.tr != nil {
		self := r.tr.selfTimes()
		r.rep.SelfTimeMs = make(map[string]float64, len(self))
		for l, d := range self {
			r.rep.SelfTimeMs[l] = ms(d)
		}
		printSelfTimes(log, w.name, self, int(r.m["loadgen.sent"]))
		if cfg.traceDir != "" {
			path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
			if err := r.tr.write(path); err != nil {
				return r.rep, err
			}
			fmt.Fprintf(log, "spans written to %s\n", path)
		}
	}
	return r.rep, nil
}

func (r *runner) logf(format string, args ...any) { fmt.Fprintf(r.log, format, args...) }

// setup runs f setupReps times, each in its own root span and each from
// a freshly collected heap so no repetition pays for the garbage of the
// one before, and records the median duration as setup_s.
func (r *runner) setup(f func(sp *active) error) error {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		sp := r.tr.root("setup", "loadgen")
		t0 := time.Now()
		err := f(sp)
		secs = append(secs, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	r.m["setup_s"] = median(secs)
	return nil
}

// setServed records the selection and working set of a registered matrix.
func (r *runner) setServed(info server.Info) {
	r.rep.Selected = info.Format
	r.rep.WorkingSetBytes = info.Bytes + formats.VectorBytes(info.Rows, info.Cols, 8)
}

// finishLoad turns the window's requests into the end-to-end metrics and
// the load generator's own numbers. extra holds a second request stream
// (churn's updates): it counts toward attempted and failed, not latency.
func (r *runner) finishLoad(s, extra *sample) {
	sortDurations(s.lat)
	sortDurations(s.lag)
	ok := len(s.lat)
	r.m["throughput_rps"] = float64(ok) / s.elapsed.Seconds()
	r.m["latency_p50_ms"] = ms(percentile(s.lat, 0.50))
	r.m["loadgen.latency_p90_ms"] = ms(percentile(s.lat, 0.90))
	r.m["loadgen.latency_p99_ms"] = ms(percentile(s.lat, 0.99))
	r.m["loadgen.lag_p99_ms"] = ms(percentile(s.lag, 0.99))
	if lag := percentile(s.lag, 0.99); lag > r.w.slo {
		r.invalid = fmt.Errorf("load generator lag p99 %v exceeds the %v latency limit", lag, r.w.slo)
	}
	r.m["loadgen.sent"] = float64(s.sent)
	miss := s.failed
	for _, l := range s.lat {
		if l > r.w.slo {
			miss++
		}
	}
	r.m["loadgen.slo_miss_ratio"] = float64(miss) / float64(max(s.sent, 1))
	all := *s
	if extra != nil {
		all.sent += extra.sent
		all.failed += extra.failed
		all.wrong += extra.wrong
		if all.firstErr == nil {
			all.firstErr = extra.firstErr
		}
	}
	r.rep.Attempted, r.rep.Failed = all.sent, all.failed
	r.wrong = all.wrong
	if all.firstErr != nil {
		r.logf("%s: %d of %d requests failed; first: %v\n", r.w.name, all.failed, all.sent, all.firstErr)
	}
	if ok < 100 {
		r.logf("%s: only %d answered requests; loadgen.latency_p90_ms has fewer than 10 samples beyond it\n", r.w.name, ok)
	}
}

// serverLayer derives the batcher's share of the window from deltas of
// the spmvd_* instruments.
func (r *runner) serverLayer(before, after map[string]any) {
	kn, ksum := histDelta(before, after, "spmvd_batch_size")
	if kn > 0 {
		r.m["server.batch_k_mean"] = ksum / float64(kn)
	}
	_, wait := histDelta(before, after, "spmvd_queue_wait_seconds")
	_, exec := histDelta(before, after, "spmvd_exec_seconds")
	if _, req := histDelta(before, after, "spmvd_request_seconds"); req > 0 {
		r.m["server.queue_wait_share"] = wait / req
	}
	r.m["server.exec_busy_share"] = exec / r.cfg.window.Seconds()
	r.m["server.shed"] = float64(counterDelta(before, after, "spmvd_requests_shed_total"))
}

// histDelta is the change in a histogram's count and sum between two
// metrics.Registry snapshots.
func histDelta(before, after map[string]any, name string) (uint64, float64) {
	a, _ := after[name].(metrics.HistogramSnapshot)
	b, _ := before[name].(metrics.HistogramSnapshot)
	return a.Count - b.Count, a.Sum - b.Sum
}

// counterDelta is the change of a counter, summed over its labeled series.
func counterDelta(before, after map[string]any, name string) uint64 {
	var d uint64
	for id, v := range after {
		if id != name && !strings.HasPrefix(id, name+"{") {
			continue
		}
		a, _ := v.(uint64)
		b, _ := before[id].(uint64)
		d += a - b
	}
	return d
}

// mergeSnapshots adds the counters and histograms of several servers.
func mergeSnapshots(snaps []map[string]any) map[string]any {
	out := make(map[string]any)
	for _, s := range snaps {
		for id, v := range s {
			switch v := v.(type) {
			case uint64:
				n, _ := out[id].(uint64)
				out[id] = n + v
			case metrics.HistogramSnapshot:
				h, _ := out[id].(metrics.HistogramSnapshot)
				h.Count += v.Count
				h.Sum += v.Sum
				out[id] = h
			}
		}
	}
	return out
}

// peakRSS is the process's resident-set high-water mark (VmHWM) in MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}
