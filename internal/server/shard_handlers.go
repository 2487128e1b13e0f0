package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"blockspmv/internal/formats"
)

// The shard endpoints make one daemon a row-shard worker: a coordinator
// (internal/shard) registers the rows [row0, row1) of a larger matrix
// here, then scatters CRC-protected SpS2 frames at the mulvecs endpoint
// and gathers the SpP2 partials. The worker never sees the full matrix;
// it serves its row block through the same autotune/pool/batcher path a
// whole matrix takes, so the robustness envelope (admission control,
// panic isolation, deadline propagation) is inherited, not rebuilt.

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
// batcher as one MulVecs dispatch into a pooled y panel — paying the row
// block's matrix stream once for all k vectors — and answer with the
// SpP2 panel partial, built in the request's body buffer.
func (s *Server) handleShardMulVecs(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, err := s.reg.Lookup(name)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	body, err := s.readBody(w, r, panelReqHeaderLen+8*int64(info.Cols)*int64(s.cfg.MaxPanelK))
	if err != nil {
		s.in.reqBad.Inc()
		s.writeErr(w, err)
		return
	}
	defer bodyScratch.Put(body)
	xbuf := vecScratch.Get().(*[]float64)
	row0, row1, n, k, flat, err := DecodePanelInto((*xbuf)[:0], *body, info.Cols, s.cfg.MaxPanelK)
	keep(xbuf, flat)
	switch {
	case err != nil: // reported below
	case !info.Sharded || row0 != info.ShardRow0 || row1 != info.ShardRow1:
		err = fmt.Errorf("%w: frame [%d, %d) against shard [%d, %d)",
			ErrWireRange, row0, row1, info.ShardRow0, info.ShardRow1)
	case n != info.Cols:
		err = &formats.DimError{Format: info.Format, Rows: info.Rows, Cols: info.Cols, LenX: n, LenY: info.Rows}
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
	yflat := growVec(*ybuf, k*info.Rows)
	keep(ybuf, yflat)
	ys, err := s.reg.mulVecsInto(ctx, name,
		PanelVecs(make([][]float64, 0, k), flat, n, k),
		PanelVecs(make([][]float64, 0, k), yflat, info.Rows, k))
	if err != nil {
		repoolVecs(err, xbuf, ybuf)
		s.writeErr(w, err)
		return
	}
	*body, err = AppendPartialPanel((*body)[:0], row0, row1, ys)
	repoolVecs(nil, xbuf, ybuf)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeBody(w, ContentTypePanelPartial, *body)
}
