package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"blockspmv/internal/overlay"
)

// jsonUpdate is one update record in the JSON form of the update
// endpoint: {"op":"set"|"add"|"delete","i":row,"j":col,"v":value}.
// op defaults to "set"; delete ignores v.
type jsonUpdate struct {
	Op string  `json:"op,omitempty"`
	I  int32   `json:"i"`
	J  int32   `json:"j"`
	V  float64 `json:"v,omitempty"`
}

// jsonUpdateBatch is the JSON request body of the update endpoint.
type jsonUpdateBatch struct {
	Updates []jsonUpdate `json:"updates"`
}

// decodeJSONUpdates translates the JSON form into overlay updates,
// rejecting unknown ops before anything is applied.
func decodeJSONUpdates(data []byte) ([]overlay.Update[float64], error) {
	var req jsonUpdateBatch
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("%w: bad JSON body: %v", errBadRequest, err)
	}
	ups := make([]overlay.Update[float64], len(req.Updates))
	for i, u := range req.Updates {
		var op overlay.Op
		switch u.Op {
		case "", "set":
			op = overlay.OpSet
		case "add":
			op = overlay.OpAdd
		case "delete":
			op = overlay.OpDelete
			u.V = 0
		default:
			return nil, fmt.Errorf("%w: update %d: unknown op %q", errBadRequest, i, u.Op)
		}
		ups[i] = overlay.Update[float64]{Op: op, Row: u.I, Col: u.J, Val: u.V}
	}
	return ups, nil
}

// handleUpdate applies a batch of point updates to a mutable matrix.
// The body is either the SpU1 binary frame (Content-Type
// application/x-spmv-update) or JSON; the reply is always JSON. The
// whole batch applies atomically with respect to concurrent multiplies,
// or not at all on any validation error.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := s.readBody(w, r, updateHeaderLen+updateRecordLen*int64(s.cfg.MaxUpdateBatch))
	if err != nil {
		s.in.reqBad.Inc()
		s.writeErr(w, err)
		return
	}
	// Both decoders copy into fresh updates, so the body goes back at once.
	var ups []overlay.Update[float64]
	if r.Header.Get("Content-Type") == ContentTypeUpdate {
		ups, err = DecodeUpdateFrame(*body, s.cfg.MaxUpdateBatch)
	} else {
		ups, err = decodeJSONUpdates(*body)
	}
	bodyScratch.Put(body)
	if err != nil {
		s.in.reqBad.Inc()
		s.writeErr(w, err)
		return
	}

	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.in.reqBad.Inc()
		s.writeErr(w, err)
		return
	}
	defer cancel()

	res, err := s.reg.Update(ctx, name, ups)
	if err != nil {
		var urange *overlay.RangeError
		var uop *overlay.OpRangeError
		if errors.Is(err, errBadRequest) || errors.As(err, &urange) || errors.As(err, &uop) {
			s.in.reqBad.Inc()
		}
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}
