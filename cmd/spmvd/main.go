// Command spmvd is the SpMV serving daemon: it holds named matrices
// resident — each parsed once, autotuned once via the selection models,
// and bound to a persistent worker pool — and answers MulVec requests
// over HTTP, coalescing concurrent requests against the same matrix
// into k-wide SpMM panels that pay the matrix stream once.
//
// Usage:
//
//	spmvd [flags]
//
// Examples:
//
//	spmvd -addr :8472
//	spmvd -load cant=matrices/cant.mtx,mc2depi=matrices/mc2depi.mtx
//	spmvd -batch 16 -window 500us -workers 4
//
// Endpoints: PUT/GET/DELETE /v1/matrix/{name}, GET /v1/matrices,
// POST /v1/matrix/{name}/mulvec (JSON {"x":[...]} or the binary vector
// codec under Content-Type application/x-spmv-vector),
// POST /v1/matrix/{name}/update (JSON {"updates":[{"op","i","j","v"}]}
// or the binary SpU1 frame under application/x-spmv-update; see
// -mutable, -recompact-after, -recompact-interval), GET /metrics
// (Prometheus text), GET /debug/vars (expvar), GET /healthz.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"blockspmv/internal/machine"
	"blockspmv/internal/profile"
	"blockspmv/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8472", "listen address")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool width per matrix")
		batch      = flag.Int("batch", 8, "max coalesced panel width k (1 disables batching)")
		window     = flag.Duration("window", 200*time.Microsecond, "how long a panel is held open for more requests, only right after a panel several requests shared; a lone request goes at once")
		queue      = flag.Int("queue", 256, "per-matrix admission queue depth")
		cacheBytes = flag.Int64("cache-bytes", 0, "matrix cache cap in bytes (0 = unbounded)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		profPath   = flag.String("profile", "", "kernel profile JSON (enables the OVERLAP model)")
		load       = flag.String("load", "", "comma-separated name=path MatrixMarket files to preload")
		shardMode  = flag.Bool("shard", false, "enable the shard-worker endpoints (PUT /v1/shard/{name}, POST /v1/shard/{name}/mulvecs) so a coordinator can scatter row blocks here")
		panelMax   = flag.Int("shard-panel-max", 0, "max right-hand sides accepted per shard panel frame (0 = default 1024)")
		detect     = flag.Bool("detect", true, "run STREAM machine detection at startup (false degrades selection to scalar CSR)")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")

		mutable        = flag.Bool("mutable", true, "wrap registered matrices in a delta overlay accepting POST /v1/matrix/{name}/update")
		recompactAfter = flag.Int64("recompact-after", 4096, "pending-scalar threshold that triggers background recompaction (negative disables)")
		recompactEvery = flag.Duration("recompact-interval", 0, "also recompact any matrix with pending updates this often (0 disables)")
		maxUpdateBatch = flag.Int("max-update-batch", 0, "max updates accepted per request (0 = default 65536)")
	)
	flag.Parse()

	cfg := server.Config{
		Workers:           *workers,
		BatchMax:          *batch,
		BatchWindow:       *window,
		QueueDepth:        *queue,
		MaxCacheBytes:     *cacheBytes,
		RequestTimeout:    *timeout,
		EnableShard:       *shardMode,
		MaxPanelK:         *panelMax,
		Mutable:           *mutable,
		RecompactAfter:    *recompactAfter,
		RecompactInterval: *recompactEvery,
		MaxUpdateBatch:    *maxUpdateBatch,
	}
	if *detect {
		log.Printf("characterising machine (STREAM triad)...")
		cfg.Mach = machine.Detect()
		log.Printf("machine: %s", cfg.Mach)
	} else {
		log.Printf("machine detection off: format selection degrades to scalar CSR")
	}
	if *profPath != "" {
		f, err := os.Open(*profPath)
		if err != nil {
			log.Fatalf("open -profile: %v", err)
		}
		t, err := profile.Load(f)
		f.Close()
		if err != nil {
			log.Fatalf("load -profile %s: %v", *profPath, err)
		}
		cfg.Prof = t
		log.Printf("loaded kernel profile from %s (OVERLAP model)", *profPath)
	}

	s := server.New(cfg)
	if err := preload(s, *load); err != nil {
		log.Fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	mode := ""
	if *shardMode {
		mode = " shard-worker"
	}
	log.Printf("spmvd%s listening on %s (workers=%d batch=%d window=%v queue=%d)",
		mode, l.Addr(), *workers, *batch, *window, *queue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()

	select {
	case err := <-done:
		log.Fatalf("serve: %v", err)
	case got := <-sig:
		log.Printf("%v: draining (in-flight batches complete, queued requests shed)...", got)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			log.Fatalf("serve: %v", err)
		}
		log.Printf("spmvd stopped")
	}
}

// preload registers each name=path MatrixMarket file before the
// listener opens, so the daemon comes up warm.
func preload(s *server.Server, spec string) error {
	if spec == "" {
		return nil
	}
	for _, item := range strings.Split(spec, ",") {
		name, path, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("bad -load entry %q (want name=path)", item)
		}
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("-load %s: %w", name, err)
		}
		info, err := s.Registry().Register(name, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("-load %s: %w", name, err)
		}
		log.Printf("loaded %s: %dx%d nnz=%d -> %s (predicted %.3f ms/SpMV)",
			info.Name, info.Rows, info.Cols, info.NNZ, info.Format, info.PredictedMs)
	}
	return nil
}
