package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"blockspmv/internal/formats"
)

// The shard endpoints make one daemon a row-shard worker: a coordinator
// (internal/shard) registers the rows [row0, row1) of a larger matrix
// here, then scatters CRC-protected SpS2 frames at the mulvecs endpoint
// and gathers the SpP2 partials. The worker never sees the full matrix;
// it serves its row block through the same autotune/pool/batcher path a
// whole matrix takes, so the robustness envelope (admission control,
// panic isolation, deadline propagation) is inherited, not rebuilt.

// vecScratch pools the decode buffers of the shard data plane so
// steady-state request handling allocates nothing for x. A *[]float64 is
// pooled rather than the slice to keep the Put interface-boxing free.
var vecScratch = sync.Pool{New: func() any { s := make([]float64, 0, 4096); return &s }}

// handleShardRegister installs a sub-matrix under the global row range
// given by the row0/row1 query parameters; the MatrixMarket body holds
// the shard's local rows with the full column dimension.
func (s *Server) handleShardRegister(w http.ResponseWriter, r *http.Request) {
	row0, err0 := strconv.Atoi(r.URL.Query().Get("row0"))
	row1, err1 := strconv.Atoi(r.URL.Query().Get("row1"))
	if err0 != nil || err1 != nil {
		s.writeErr(w, fmt.Errorf("%w: shard registration needs integer row0/row1 query parameters", errBadRequest))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	info, err := s.reg.RegisterShard(r.PathValue("name"), body, row0, row1)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(info)
}

// handleShardMulVecs is the shard data plane: decode the SpS2 frame
// into pooled scratch, check its row range (a frame routed to the wrong
// worker must fail loudly, never compute the wrong rows) and its vector
// length against the registered shard, run the k-wide panel through the
// batcher as one MulVecs dispatch — paying the row block's matrix stream
// once for all k vectors — and answer with the SpP2 panel partial.
func (s *Server) handleShardMulVecs(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, err := s.reg.Lookup(name)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.in.reqBad.Inc()
		s.writeErr(w, err)
		return
	}
	scratch := vecScratch.Get().(*[]float64)
	row0, row1, n, k, flat, err := DecodePanelInto((*scratch)[:0], data, info.Cols, s.cfg.MaxPanelK)
	switch {
	case err != nil: // reported below
	case !info.Sharded || row0 != info.ShardRow0 || row1 != info.ShardRow1:
		err = fmt.Errorf("%w: frame [%d, %d) against shard [%d, %d)",
			ErrWireRange, row0, row1, info.ShardRow0, info.ShardRow1)
	case n != info.Cols:
		err = &formats.DimError{Format: info.Format, Rows: info.Rows, Cols: info.Cols, LenX: n, LenY: info.Rows}
	}
	if err != nil {
		vecScratch.Put(scratch)
		s.in.reqBad.Inc()
		s.writeErr(w, err)
		return
	}
	xs := PanelVecs(make([][]float64, 0, k), flat, n, k)

	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		vecScratch.Put(scratch)
		s.in.reqBad.Inc()
		s.writeErr(w, err)
		return
	}
	defer cancel()

	ys, err := s.reg.MulVecs(ctx, name, xs)
	// The batcher's submitPanel can return on context expiry while the batch
	// loop still holds the panel for a dispatch it has not yet dropped;
	// repooling the scratch then would hand the kernel a buffer another
	// request is overwriting. Only a done-channel outcome (success or a
	// non-context error) proves the loop is finished with the panel.
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		if cap(flat) > cap(*scratch) {
			*scratch = flat[:0]
		}
		vecScratch.Put(scratch)
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	out, err := EncodePartialPanel(row0, row1, ys)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", ContentTypePanelPartial)
	w.Write(out)
}
