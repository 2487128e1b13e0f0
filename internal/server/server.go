// Package server is the SpMV serving subsystem: a long-lived daemon
// layer that makes the library's autotuned kernels reachable by traffic.
//
// Three pieces compose per the paper's bandwidth-limitation analysis —
// the matrix stream, not compute, is the scarce resource, so a service
// wins by (a) autotuning each matrix once and reusing the tuned
// instance for every request, and (b) coalescing concurrent requests
// against one matrix into k-wide panels that pay the matrix stream once:
//
//   - Registry: named matrices, parsed under limits, autotuned via
//     core.SelectSafe into a cached best-format instance with a
//     persistent worker pool; LRU eviction under a size cap, ref-counted
//     so teardown never races in-flight requests.
//   - batcher: per-matrix dynamic coalescing of queued requests into
//     MulVecs panels (held open for more only right after a shared
//     panel), bounded-queue admission control with typed ErrOverloaded
//     shedding, graceful drain.
//   - Server: the HTTP face — matrix CRUD, a MulVec endpoint speaking
//     JSON or the compact binary vector codec, Prometheus metrics at
//     /metrics, expvar at /debug/vars, health at /healthz.
//
// Failure isolation follows the library's panic-free contract: a kernel
// panic inside one matrix's pool surfaces as a typed 5xx on the requests
// sharing that batch and poisons only that matrix's pool; requests on
// other matrices are untouched because every matrix owns its own pool.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/metrics"
	"blockspmv/internal/overlay"
	"blockspmv/internal/workpool"
)

// Server is the HTTP serving layer over a Registry.
type Server struct {
	cfg Config
	reg *Registry
	in  *instruments
	mux *http.ServeMux
	hs  *http.Server

	mu       sync.Mutex
	listener net.Listener
	shutdown bool
}

// New builds a server from the configuration; nothing listens until
// Serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	in := newInstruments(cfg.Metrics)
	s := &Server{cfg: cfg, reg: NewRegistry(cfg, in), in: in, mux: http.NewServeMux()}
	s.mux.HandleFunc("PUT /v1/matrix/{name}", s.handleRegister)
	s.mux.HandleFunc("GET /v1/matrix/{name}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/matrix/{name}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/matrices", s.handleList)
	s.mux.HandleFunc("POST /v1/matrix/{name}/mulvec", s.handleMulVec)
	s.mux.HandleFunc("POST /v1/matrix/{name}/update", s.handleUpdate)
	if cfg.EnableShard {
		s.mux.HandleFunc("PUT /v1/shard/{name}", s.handleShardRegister)
		s.mux.HandleFunc("POST /v1/shard/{name}/mulvecs", s.handleShardMulVecs)
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	s.hs = &http.Server{Handler: s.mux}
	return s
}

// Registry exposes the matrix registry for embedding and tests
// (e.g. RegisterInstance).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the metric registry the server instruments into.
func (s *Server) Metrics() *metrics.Registry { return s.in.reg }

// Handler returns the routing handler, for serving through an external
// http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown or Close. Like
// http.Server.Serve it blocks; after a graceful Shutdown it returns nil.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	err := s.hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully drains the server: the registry's batchers finish
// their in-flight batches and shed their queues with
// ErrOverloaded-typed responses, every worker pool is retired, then the
// HTTP layer stops accepting and waits (up to ctx) for handlers to
// return. After Shutdown no goroutines started by the server remain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.shutdown = true
	s.mu.Unlock()
	s.reg.Close()
	return s.hs.Shutdown(ctx)
}

// Close force-closes the listener and connections, then tears down the
// registry.
func (s *Server) Close() error {
	err := s.hs.Close()
	s.reg.Close()
	return err
}

// apiError is the uniform JSON error body: a stable machine-readable
// kind plus the human-readable chain.
type apiError struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// writeErr maps a typed error to its HTTP status and kind.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	status, kind := http.StatusInternalServerError, "internal"
	var dim *formats.DimError
	var pnl *formats.PanelError
	var pan *workpool.PanicError
	var poi *workpool.PoisonedError
	var maxBytes *http.MaxBytesError
	var urange *overlay.RangeError
	var uop *overlay.OpRangeError
	switch {
	case errors.Is(err, ErrImmutable):
		status, kind = http.StatusConflict, "immutable"
	case errors.Is(err, ErrShardedUpdate):
		status, kind = http.StatusConflict, "sharded"
	case errors.As(err, &urange), errors.As(err, &uop):
		status, kind = http.StatusBadRequest, "update_range"
	case errors.Is(err, ErrOverloaded):
		status, kind = http.StatusServiceUnavailable, "overloaded"
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrClosed):
		status, kind = http.StatusServiceUnavailable, "shutting_down"
	case errors.Is(err, ErrNotFound):
		status, kind = http.StatusNotFound, "not_found"
	case errors.Is(err, ErrCacheFull):
		status, kind = http.StatusInsufficientStorage, "cache_full"
	case errors.Is(err, mat.ErrLimit):
		status, kind = http.StatusRequestEntityTooLarge, "matrix_too_large"
	case errors.As(err, &maxBytes):
		status, kind = http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.Is(err, context.DeadlineExceeded):
		status, kind = http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		status, kind = statusClientClosedRequest, "canceled"
	case errors.As(err, &dim), errors.As(err, &pnl), errors.Is(err, errBadRequest),
		isShardWireErr(err), isUpdateWireErr(err):
		status, kind = http.StatusBadRequest, "bad_request"
	case errors.As(err, &pan), errors.As(err, &poi):
		status, kind = http.StatusInternalServerError, "kernel_panic"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Kind: kind, Error: err.Error()})
}

// statusClientClosedRequest reports a request abandoned by its client
// (the de-facto 499; no standard code covers it).
const statusClientClosedRequest = 499

func isWireErr(err error) bool {
	return errors.Is(err, ErrWireMagic) || errors.Is(err, ErrWireKind) ||
		errors.Is(err, ErrWireReserved) || errors.Is(err, ErrWireTooLarge) ||
		errors.Is(err, ErrWireTruncated) || errors.Is(err, ErrWireTrailing)
}

// handleRegister parses the MatrixMarket body and installs it.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	info, err := s.reg.Register(r.PathValue("name"), body)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(info)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Lookup(r.PathValue("name"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.reg.Remove(r.PathValue("name")) {
		s.writeErr(w, fmt.Errorf("%w: %q", ErrNotFound, r.PathValue("name")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Matrices []Info `json:"matrices"`
	}{s.reg.List()})
}

// jsonVec is the JSON request/response body of the MulVec endpoint.
type jsonVec struct {
	X []float64 `json:"x,omitempty"`
	Y []float64 `json:"y,omitempty"`
}

// handleMulVec is the data-plane endpoint: decode the input vector
// (binary codec or JSON) into pooled scratch, derive the request
// deadline, run the request through the matrix's batcher into a pooled
// y, and answer in the request's encoding, built in the request's body
// buffer.
func (s *Server) handleMulVec(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, err := s.reg.Lookup(name)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	body, err := s.readBody(w, r, wireHeaderLen+8*int64(info.Cols))
	if err != nil {
		s.in.reqBad.Inc()
		s.writeErr(w, err)
		return
	}
	defer bodyScratch.Put(body)
	binaryReq := r.Header.Get("Content-Type") == ContentTypeVector
	xbuf := vecScratch.Get().(*[]float64)
	var x []float64
	if binaryReq {
		x, err = DecodeVectorInto((*xbuf)[:0], *body, info.Cols)
		keep(xbuf, x)
	} else {
		var req jsonVec
		if err = json.Unmarshal(*body, &req); err != nil {
			err = fmt.Errorf("%w: bad JSON body: %v", errBadRequest, err)
		} else {
			x = req.X
		}
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if err == nil {
		ctx, cancel, err = s.requestContext(r)
	}
	if err != nil {
		repoolVecs(nil, xbuf)
		s.in.reqBad.Inc()
		s.writeErr(w, err)
		return
	}
	defer cancel()

	ybuf := vecScratch.Get().(*[]float64)
	y := growVec(*ybuf, info.Rows)
	keep(ybuf, y)
	_, err = s.reg.mulVecsInto(ctx, name, [][]float64{x}, [][]float64{y})
	if err != nil {
		repoolVecs(err, xbuf, ybuf)
		var dim *formats.DimError
		if errors.As(err, &dim) {
			s.in.reqBad.Inc()
		}
		s.writeErr(w, err)
		return
	}
	contentType := ContentTypeVector
	if binaryReq {
		*body, err = AppendVector((*body)[:0], y)
	} else {
		contentType = "application/json"
		reply := bytes.NewBuffer((*body)[:0])
		err = json.NewEncoder(reply).Encode(jsonVec{Y: y})
		*body = reply.Bytes()
	}
	repoolVecs(nil, xbuf, ybuf)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeBody(w, contentType, *body)
}

// requestContext applies the per-request deadline: the client's
// Spmvd-Timeout header (a Go duration, capped at the server default)
// when present, the configured RequestTimeout otherwise, layered on the
// connection context so client disconnects cancel queued work.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	timeout := s.cfg.RequestTimeout
	if h := r.Header.Get("Spmvd-Timeout"); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d <= 0 {
			return nil, nil, fmt.Errorf("%w: bad Spmvd-Timeout %q", errBadRequest, h)
		}
		if d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.in.reg.WritePrometheus(w)
}

// handleVars serves the expvar namespace — the process-wide vars
// published through the standard expvar package — plus this server's
// metric snapshot under the "spmvd" key. Serving it per-Server (rather
// than expvar.Publish) keeps multiple servers in one process, as the
// tests create, from colliding in the global namespace.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value)
	})
	snap, err := json.Marshal(s.in.reg.Snapshot())
	if err != nil {
		snap = []byte("{}")
	}
	fmt.Fprintf(w, "%q: %s\n}\n", "spmvd", snap)
}

// Addr returns the bound listener address once Serve has been called
// (useful with ":0" listeners).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}
