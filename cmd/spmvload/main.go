// Command spmvload is the closed-loop load generator for spmvd: N
// concurrent clients issue MulVec requests against one matrix over
// keep-alive HTTP and report achieved throughput, client-observed
// latency quantiles, the server's mean coalesced panel width k, and the
// admission-control shed rate.
//
// With no -addr it self-hosts: it generates a matrix, serves it from an
// in-process spmvd instance, and measures two phases over the same load
// — batching disabled (-batch=1 server) and batching enabled — so the
// printed speedup isolates what request coalescing buys. With -addr it
// drives one phase against an already-running daemon.
//
// With -shards it instead sweeps the row-shard coordinator: per shard
// count it self-hosts that many shard workers, scatters the matrix with
// the balanced row plan, and drives Coordinator.MulVec closed-loop in
// two phases — per-call scatter, then (with -batch > 1) the same load
// through the coordinator's gather-window batcher, which coalesces
// concurrent callers into multi-RHS SpS2 panels; -chaos injects wire
// faults through proxies and -node-cap caps each worker's matrix cache
// to demonstrate the capacity motive.
//
// Usage:
//
//	spmvload [flags]
//
// Examples:
//
//	spmvload -clients 8 -duration 2s
//	spmvload -n 8192 -density 0.004 -batch 16 -json BENCH_serve.json
//	spmvload -addr localhost:8472 -matrix cant -clients 16
//	spmvload -shards 1,2,4 -chaos -json BENCH_shard.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"blockspmv/internal/bench"
	"blockspmv/internal/machine"
	"blockspmv/internal/server"
	"blockspmv/internal/testmat"
)

type options struct {
	addr     string
	matrix   string
	clients  int
	duration time.Duration
	warmup   time.Duration
	batch    int
	workers  int
	window   time.Duration
	n        int
	density  float64
	seed     int64
	detect   bool
	jsonPath string
	shards   string
	chaos    bool
	nodeCap  int64

	updates        bool
	updateBatch    int
	recompactAfter int64

	log io.Writer
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", "", "drive a running spmvd at this address (empty: self-host)")
	flag.StringVar(&opts.matrix, "matrix", "bench", "matrix name to drive")
	flag.IntVar(&opts.clients, "clients", 8, "concurrent closed-loop clients")
	flag.DurationVar(&opts.duration, "duration", 2*time.Second, "measured time per phase")
	flag.DurationVar(&opts.warmup, "warmup", 250*time.Millisecond, "untimed warmup per phase")
	flag.IntVar(&opts.batch, "batch", 8, "max coalesced panel width k for the batched phase, server or shard coordinator (1 disables batching)")
	flag.IntVar(&opts.workers, "workers", runtime.GOMAXPROCS(0), "self-hosted server worker-pool width")
	flag.DurationVar(&opts.window, "window", 200*time.Microsecond, "batch gather window, server or shard coordinator: how long a panel is held open for more callers, only right after a panel several callers shared")
	flag.IntVar(&opts.n, "n", 4096, "self-hosted matrix dimension")
	flag.Float64Var(&opts.density, "density", 0.008, "self-hosted matrix density")
	flag.Int64Var(&opts.seed, "seed", 1, "self-hosted matrix seed")
	flag.BoolVar(&opts.detect, "detect", true, "run STREAM machine detection (for the report and format selection)")
	flag.StringVar(&opts.jsonPath, "json", "", "write a bench report (internal/bench schema) to this file")
	flag.StringVar(&opts.shards, "shards", "", "comma-separated shard counts (e.g. 1,2,4): run the row-shard coordinator sweep instead of the serve phases")
	flag.BoolVar(&opts.chaos, "chaos", false, "front every shard worker with a fault-injecting proxy (drops, truncation, corruption)")
	flag.Int64Var(&opts.nodeCap, "node-cap", 0, "per-worker matrix cache cap in bytes for the shard sweep (>0 also probes that one node rejects the full matrix)")
	flag.BoolVar(&opts.updates, "updates", false, "run the mutable-matrix churn phases (read throughput before/during/after background recompaction) instead of the batching phases")
	flag.IntVar(&opts.updateBatch, "update-batch", 64, "point updates per POST in the churn phase")
	flag.Int64Var(&opts.recompactAfter, "recompact-after", 2048, "pending-scalar threshold of the churn phase's server")
	flag.Parse()
	opts.log = os.Stdout

	rep := &bench.Report{Scale: "serve"}
	if opts.updates {
		res, mach, err := runOverlayChurn(opts)
		if err != nil {
			log.Fatal(err)
		}
		rep.Machine, rep.Scale = mach, "overlay"
		rep.AddOverlay(res)
	} else if opts.shards != "" {
		res, mach, err := runShardSweep(opts)
		if err != nil {
			log.Fatal(err)
		}
		rep.Machine, rep.Scale = mach, "shard"
		rep.AddShard(res)
	} else {
		res, mach, err := run(opts)
		if err != nil {
			log.Fatal(err)
		}
		rep.Machine = mach
		rep.AddServe(res)
	}
	if opts.jsonPath != "" {
		f, err := os.Create(opts.jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", opts.jsonPath)
	}
}

// run executes the configured phases and returns the measurements.
func run(opts options) (bench.ServeResult, machine.Machine, error) {
	var mach machine.Machine
	if opts.detect {
		fmt.Fprintln(opts.log, "characterising machine (STREAM triad)...")
		mach = machine.Detect()
	}
	if opts.addr != "" {
		return runRemote(opts, mach)
	}
	return runSelfhost(opts, mach)
}

// runSelfhost measures the same closed-loop load against two in-process
// servers over real HTTP: one with batching disabled, one coalescing up
// to -batch requests per panel.
func runSelfhost(opts options, mach machine.Machine) (bench.ServeResult, machine.Machine, error) {
	m := testmat.Random[float64](opts.n, opts.n, opts.density, opts.seed)
	res := bench.ServeResult{Matrix: fmt.Sprintf("random-%d", opts.n), Rows: opts.n, NNZ: int64(m.NNZ())}
	fmt.Fprintf(opts.log, "matrix: %dx%d nnz=%d, %d clients, %v per phase\n",
		opts.n, opts.n, m.NNZ(), opts.clients, opts.duration)

	phases := []struct {
		mode  string
		batch int
	}{{"unbatched", 1}}
	if opts.batch > 1 {
		phases = append(phases, struct {
			mode  string
			batch int
		}{"batched", opts.batch})
	}
	for _, ph := range phases {
		cfg := server.Config{
			Mach: mach, Workers: opts.workers,
			BatchMax: ph.batch, BatchWindow: opts.window,
		}
		s := server.New(cfg)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return res, mach, err
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- s.Serve(l) }()
		info, err := s.Registry().RegisterMatrix(res.Matrix, m)
		if err != nil {
			s.Close()
			return res, mach, err
		}
		if len(res.Points) == 0 {
			fmt.Fprintf(opts.log, "selected format: %s (%d bytes)\n", info.Format, info.Bytes)
		}
		pt, err := drive("http://"+l.Addr().String(), res.Matrix, ph.mode, info.Cols, opts)
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		serr := s.Shutdown(sctx)
		cancel()
		if err == nil {
			err = serr
		}
		if err == nil {
			err = <-serveDone
		}
		if err != nil {
			return res, mach, err
		}
		res.Points = append(res.Points, pt)
		printPoint(opts.log, pt)
	}
	if len(res.Points) == 2 && res.Points[0].QPS > 0 {
		res.Speedup = res.Points[1].QPS / res.Points[0].QPS
		fmt.Fprintf(opts.log, "batched vs unbatched: %.2fx throughput (mean k %.2f)\n",
			res.Speedup, res.Points[1].MeanBatch)
	}
	return res, mach, nil
}

// runRemote drives one phase against an already-running daemon.
func runRemote(opts options, mach machine.Machine) (bench.ServeResult, machine.Machine, error) {
	base := opts.addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	resp, err := http.Get(base + "/v1/matrix/" + opts.matrix)
	if err != nil {
		return bench.ServeResult{}, mach, err
	}
	var info struct {
		Cols int   `json:"cols"`
		Rows int   `json:"rows"`
		NNZ  int64 `json:"nnz"`
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		return bench.ServeResult{}, mach, err
	}
	if resp.StatusCode != http.StatusOK {
		return bench.ServeResult{}, mach, fmt.Errorf("%s/v1/matrix/%s: %s", base, opts.matrix, resp.Status)
	}
	res := bench.ServeResult{Matrix: opts.matrix, Rows: info.Rows, NNZ: info.NNZ}
	pt, err := drive(base, opts.matrix, "remote", info.Cols, opts)
	if err != nil {
		return res, mach, err
	}
	res.Points = append(res.Points, pt)
	printPoint(opts.log, pt)
	return res, mach, nil
}

// drive runs one closed-loop phase: warmup, then opts.duration of
// measured traffic from opts.clients goroutines, each POSTing the same
// pre-encoded binary vector over a keep-alive connection.
func drive(base, name, mode string, cols int, opts options) (bench.ServePoint, error) {
	x := make([]float64, cols)
	for i := range x {
		x[i] = math.Sin(float64(i + 1))
	}
	body, err := server.EncodeVector(x)
	if err != nil {
		return bench.ServePoint{}, err
	}
	url := base + "/v1/matrix/" + name + "/mulvec"
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        opts.clients * 2,
		MaxIdleConnsPerHost: opts.clients * 2,
	}}
	defer client.CloseIdleConnections()

	post := func() (int, error) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", server.ContentTypeVector)
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, err
	}

	// Warmup, untimed: fill connection pools and the server's caches.
	var wg sync.WaitGroup
	stopAt := time.Now().Add(opts.warmup)
	for c := 0; c < opts.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				post()
			}
		}()
	}
	wg.Wait()

	sum0, cnt0, err := scrapeBatchHist(client, base)
	if err != nil {
		return bench.ServePoint{}, err
	}

	type clientStats struct {
		lats      []time.Duration
		ok, shed  int
		bad       int
		badStatus int
		err       error
	}
	stats := make([]clientStats, opts.clients)
	start := time.Now()
	stopAt = start.Add(opts.duration)
	for c := 0; c < opts.clients; c++ {
		wg.Add(1)
		go func(cs *clientStats) {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				t0 := time.Now()
				status, err := post()
				lat := time.Since(t0)
				switch {
				case err != nil:
					cs.err = err
					return
				case status == http.StatusOK:
					cs.ok++
					cs.lats = append(cs.lats, lat)
				case status == http.StatusServiceUnavailable:
					cs.shed++
				default:
					cs.bad++
					cs.badStatus = status
				}
			}
		}(&stats[c])
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum1, cnt1, err := scrapeBatchHist(client, base)
	if err != nil {
		return bench.ServePoint{}, err
	}

	pt := bench.ServePoint{Mode: mode, Clients: opts.clients, Seconds: elapsed.Seconds()}
	var lats []time.Duration
	for _, cs := range stats {
		if cs.err != nil {
			return pt, fmt.Errorf("client error in %s phase: %w", mode, cs.err)
		}
		if cs.bad > 0 {
			return pt, fmt.Errorf("%d unexpected responses in %s phase (last status %d)", cs.bad, mode, cs.badStatus)
		}
		pt.Requests += cs.ok
		pt.Shed += cs.shed
		lats = append(lats, cs.lats...)
	}
	if pt.Requests == 0 {
		return pt, fmt.Errorf("%s phase completed no requests", mode)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pt.QPS = float64(pt.Requests) / elapsed.Seconds()
	pt.P50 = quantile(lats, 0.50)
	pt.P95 = quantile(lats, 0.95)
	pt.P99 = quantile(lats, 0.99)
	if cnt1 > cnt0 {
		pt.MeanBatch = (sum1 - sum0) / float64(cnt1-cnt0)
	}
	return pt, nil
}

// scrapeBatchHist reads the server's panel-width histogram totals from
// the Prometheus endpoint, so the mean batch size works the same
// against self-hosted and remote daemons.
func scrapeBatchHist(client *http.Client, base string) (sum float64, count uint64, err error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "spmvd_batch_size_sum "); ok {
			sum, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
		} else if v, ok := strings.CutPrefix(line, "spmvd_batch_size_count "); ok {
			count, err = strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("parse /metrics line %q: %w", line, err)
		}
	}
	return sum, count, sc.Err()
}

func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx].Seconds()
}

func printPoint(w io.Writer, pt bench.ServePoint) {
	fmt.Fprintf(w, "%-10s %d clients: %7.0f req/s  p50 %6.3f ms  p95 %6.3f ms  p99 %6.3f ms  mean k %.2f  shed %d\n",
		pt.Mode, pt.Clients, pt.QPS, pt.P50*1e3, pt.P95*1e3, pt.P99*1e3, pt.MeanBatch, pt.Shed)
}
