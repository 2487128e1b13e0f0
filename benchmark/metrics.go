package main

import (
	"math"
	"sort"
	"time"
)

// metricDef describes one reported metric. End-to-end metrics are what a
// user of the library or the daemon sees and carry a regression bound in
// BENCHMARK.json; per-layer metrics split that time by module. README.md
// maps each per-layer metric to the end-to-end metric it should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	E2E    bool
}

// Every per-layer time below is measured on every workload, so none reads
// as a constant. Layers a workload does not pass through report their
// in-window share or count as 0 instead of a time.
var metricDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", E2E: true},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", E2E: true},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", E2E: true},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", E2E: true},

	{Name: "loadgen.sent", Unit: "count", Better: "higher"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.slo_miss_ratio", Unit: "ratio", Better: "lower"},

	{Name: "mat.parse_s", Unit: "s", Better: "lower"},

	{Name: "core.enumerate_s", Unit: "s", Better: "lower"},
	{Name: "core.rank_s", Unit: "s", Better: "lower"},
	{Name: "core.candidates", Unit: "count", Better: "lower"},
	{Name: "core.model_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.regret", Unit: "ratio", Better: "lower"},
	{Name: "core.mem_term_share", Unit: "ratio", Better: "lower"},

	{Name: "formats.build_s", Unit: "s", Better: "lower"},
	{Name: "formats.bytes_per_nnz", Unit: "B", Better: "lower"},
	{Name: "formats.spmv_ms", Unit: "ms", Better: "lower"},
	{Name: "formats.gbps_computed", Unit: "GB/s", Better: "higher"},
	{Name: "formats.panel8_ms", Unit: "ms", Better: "lower"},
	{Name: "formats.panel8_per_vec_ratio", Unit: "ratio", Better: "lower"},

	{Name: "parallel.spmv_ms", Unit: "ms", Better: "lower"},
	{Name: "parallel.speedup", Unit: "ratio", Better: "higher"},

	{Name: "solver.iterations", Unit: "count", Better: "lower"},
	{Name: "solver.spmv_share", Unit: "ratio", Better: "lower"},

	{Name: "server.batch_k_mean", Unit: "vec", Better: "higher"},
	{Name: "server.queue_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "server.exec_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "server.shed", Unit: "count", Better: "lower"},

	{Name: "wire.encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_us", Unit: "us", Better: "lower"},
	{Name: "http.overhead_share", Unit: "ratio", Better: "lower"},

	{Name: "overlay.fixup_ms", Unit: "ms", Better: "lower"},
	{Name: "overlay.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "overlay.update_calls", Unit: "count", Better: "higher"},
	{Name: "overlay.update_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "overlay.recompactions", Unit: "count", Better: "higher"},
	{Name: "overlay.recompact_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "overlay.pending_max", Unit: "count", Better: "lower"},
	{Name: "overlay.format_changes", Unit: "count", Better: "lower"},

	{Name: "shard.batch_k_mean", Unit: "vec", Better: "higher"},
	{Name: "shard.tx_bytes_per_call", Unit: "B", Better: "lower"},
	{Name: "shard.retries", Unit: "count", Better: "lower"},
	{Name: "shard.hedges", Unit: "count", Better: "lower"},
}

// percentile is the nearest-rank percentile of an ascending sample.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method),
// which is how the spread of repeated runs is judged.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}
