package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/leakcheck"
	"blockspmv/internal/overlay"
	"blockspmv/internal/testmat"
)

// TestServerUpdateEndpoint drives POST /v1/matrix/{name}/update through
// both encodings and every typed rejection the handler maps.
func TestServerUpdateEndpoint(t *testing.T) {
	leakcheck.Check(t)
	s, base, client, stop := startServer(t, Config{
		Workers: 2, BatchMax: 4, Mutable: true, RecompactAfter: -1, MaxUpdateBatch: 4,
	})
	defer stop()

	m := testmat.Random[float64](30, 20, 0.2, 61)
	var info Info
	if status, body := doJSON(t, client, http.MethodPut, base+"/v1/matrix/m", mmBody(t, m), &info); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	if !info.Mutable {
		t.Fatalf("registered entry not mutable: %+v", info)
	}

	// JSON updates.
	var res UpdateResult
	body := []byte(`{"updates":[{"op":"set","i":0,"j":0,"v":4.5},{"op":"delete","i":1,"j":1},{"i":2,"j":2,"v":-1}]}`)
	if status, b := doJSON(t, client, http.MethodPost, base+"/v1/matrix/m/update", body, &res); status != 200 {
		t.Fatalf("json update: %d %s", status, b)
	}
	if res.Applied != 3 {
		t.Fatalf("json update result = %+v", res)
	}

	// Binary SpU1 updates.
	frame := mustEncodeUpdates(t, []overlay.Update[float64]{
		{Op: overlay.OpAdd, Row: 3, Col: 3, Val: 2},
	})
	req, err := http.NewRequest(http.MethodPost, base+"/v1/matrix/m/update", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeUpdate)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("binary update: %d %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &res); err != nil || res.Applied != 1 {
		t.Fatalf("binary update result %s (err %v)", b, err)
	}

	// The served product reflects every update.
	d := m.ToDense()
	d[0*20+0] = 4.5
	d[1*20+1] = 0
	d[2*20+2] = -1
	d[3*20+3] += 2
	x := testVec(20)
	var mv jsonVec
	xb, _ := json.Marshal(jsonVec{X: x})
	if status, b := doJSON(t, client, http.MethodPost, base+"/v1/matrix/m/mulvec", xb, &mv); status != 200 {
		t.Fatalf("mulvec: %d %s", status, b)
	}
	for i := 0; i < 30; i++ {
		var want float64
		for j := 0; j < 20; j++ {
			want += d[i*20+j] * x[j]
		}
		if math.Abs(mv.Y[i]-want) > 1e-12 {
			t.Fatalf("y[%d] = %g, want %g", i, mv.Y[i], want)
		}
	}

	// Typed rejections, each with its JSON kind. Every 400 counts once in
	// spmvd_requests_bad_total; 404 and 409 leave it alone.
	reject := func(name, contentType string, body []byte, wantStatus int, wantKind string) {
		t.Helper()
		before := s.in.reqBad.Value()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/matrix/"+name+"/update", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d (%s), want %d", resp.StatusCode, b, wantStatus)
		}
		var ae apiError
		if err := json.Unmarshal(b, &ae); err != nil || ae.Kind != wantKind {
			t.Fatalf("error body %q, want kind %q", b, wantKind)
		}
		var wantBad uint64
		if wantStatus == http.StatusBadRequest {
			wantBad = 1
		}
		if got := s.in.reqBad.Value() - before; got != wantBad {
			t.Errorf("%s rejection moved spmvd_requests_bad_total by %d, want %d", wantKind, got, wantBad)
		}
	}
	const ctJSON = "application/json"

	reject("m", ctJSON, []byte(`{"updates":[{"i":999,"j":0,"v":1}]}`), http.StatusBadRequest, "update_range")
	reject("m", ctJSON, []byte(`{"updates":[{"op":"frobnicate","i":0,"j":0}]}`), http.StatusBadRequest, "bad_request")
	overCap := []byte(`{"updates":[{"i":0,"j":0,"v":1},{"i":1,"j":1,"v":1},{"i":2,"j":2,"v":1},{"i":3,"j":3,"v":1},{"i":4,"j":4,"v":1}]}`)
	reject("m", ctJSON, overCap, http.StatusBadRequest, "bad_request")
	reject("nope", ctJSON, []byte(`{"updates":[]}`), http.StatusNotFound, "not_found")

	// A corrupt binary frame is a wire-typed bad request.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 1
	reject("m", ContentTypeUpdate, bad, http.StatusBadRequest, "bad_request")

	// A prebuilt instance has no overlay even on a mutable server.
	inst := csr.FromCOO(testmat.Random[float64](5, 5, 0.4, 3), blocks.Scalar)
	if _, err := s.Registry().RegisterInstance("pre", inst); err != nil {
		t.Fatal(err)
	}
	reject("pre", ctJSON, []byte(`{"updates":[{"i":0,"j":0,"v":1}]}`), http.StatusConflict, "immutable")

	// Shard registrations refuse updates with their own kind.
	if _, err := s.Registry().RegisterShardMatrix("shard", testmat.Random[float64](4, 12, 0.4, 4), 0, 4); err != nil {
		t.Fatal(err)
	}
	reject("shard", ctJSON, []byte(`{"updates":[{"i":0,"j":0,"v":1}]}`), http.StatusConflict, "sharded")
}
