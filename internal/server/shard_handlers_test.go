package server

import (
	"bytes"
	"math"
	"net/http"
	"testing"

	"blockspmv/internal/leakcheck"
	"blockspmv/internal/mat"
	"blockspmv/internal/testmat"
)

// sliceRows extracts rows [row0, row1) of m as a standalone sub-matrix
// with local row numbering and the full column dimension.
func sliceRows(m *mat.COO[float64], row0, row1 int) *mat.COO[float64] {
	sub := mat.New[float64](row1-row0, m.Cols())
	for _, e := range m.Entries() {
		if int(e.Row) >= row0 && int(e.Row) < row1 {
			sub.Add(e.Row-int32(row0), e.Col, e.Val)
		}
	}
	sub.Finalize()
	return sub
}

// TestShardEndpointErrors covers the rejection paths: range mismatches
// (frame routed to the wrong worker), corrupted frames, vectors of the
// wrong width, bad registrations, and the gate — shard routes absent
// unless EnableShard. Every rejected frame counts as a bad request.
func TestShardEndpointErrors(t *testing.T) {
	leakcheck.Check(t)
	s, base, client, stop := startServer(t, Config{EnableShard: true})
	defer stop()

	m := testmat.Random[float64](30, 20, 0.2, 8)
	m.Finalize()
	sub := sliceRows(m, 10, 30)

	// Registration with a range that disagrees with the body's row count.
	if status, body := doJSON(t, client, http.MethodPut,
		base+"/v1/shard/bad?row0=0&row1=5", mmBody(t, sub), nil); status != http.StatusBadRequest {
		t.Fatalf("mismatched registration: %d %s", status, body)
	}
	// Missing query parameters.
	if status, body := doJSON(t, client, http.MethodPut,
		base+"/v1/shard/bad", mmBody(t, sub), nil); status != http.StatusBadRequest {
		t.Fatalf("missing range: %d %s", status, body)
	}
	if status, body := doJSON(t, client, http.MethodPut,
		base+"/v1/shard/ok?row0=10&row1=30", mmBody(t, sub), nil); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}

	x := testVec(20)
	post := func(frame []byte) (int, []byte) {
		t.Helper()
		resp, err := client.Post(base+"/v1/shard/ok/mulvecs", ContentTypePanelRequest, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readAll(t, resp)
	}
	reject := func(what string, frame []byte) {
		t.Helper()
		before := s.in.reqBad.Value()
		if status, body := post(frame); status != http.StatusBadRequest {
			t.Fatalf("%s: %d %s", what, status, body)
		}
		if got := s.in.reqBad.Value() - before; got != 1 {
			t.Fatalf("%s: bad-request counter moved by %d, want 1", what, got)
		}
	}

	// A frame claiming a different row range than the resident shard.
	reject("range mismatch", mustEncodePanelReq(t, 0, 20, [][]float64{x}))
	// A frame with one corrupted element byte: checksum rejection.
	frame := mustEncodePanelReq(t, 10, 30, [][]float64{x})
	frame[panelReqHeaderLen+3] ^= 0x10
	reject("corrupted frame", frame)
	// Vectors shorter than the shard's column count.
	reject("short vectors", mustEncodePanelReq(t, 10, 30, [][]float64{x[:19]}))
	// And a valid frame still succeeds after the rejections.
	if status, body := post(mustEncodePanelReq(t, 10, 30, [][]float64{x})); status != http.StatusOK {
		t.Fatalf("valid frame: %d %s", status, body)
	}

	// Gate: a server without EnableShard has no shard routes.
	_, base2, client2, stop2 := startServer(t, Config{})
	defer stop2()
	if status, body := doJSON(t, client2, http.MethodPut,
		base2+"/v1/shard/x?row0=0&row1=20", mmBody(t, sub), nil); status != http.StatusNotFound {
		t.Fatalf("gated register: %d %s", status, body)
	}
}

// TestShardEndpoints walks the worker face of the sharded data plane:
// register a row block over HTTP, multiply one vector (a panel of one)
// through the SpS2/SpP2 frames, and confirm the partial equals the
// matching slice of the single-node reference bit for bit.
func TestShardEndpoints(t *testing.T) {
	leakcheck.Check(t)
	_, base, client, stop := startServer(t, Config{Workers: 2, EnableShard: true})
	defer stop()

	m := testmat.Random[float64](60, 40, 0.15, 7)
	m.Finalize()
	const row0, row1 = 20, 50
	sub := sliceRows(m, row0, row1)

	var info Info
	status, body := doJSON(t, client, http.MethodPut,
		base+"/v1/shard/demo?row0=20&row1=50", mmBody(t, sub), &info)
	if status != http.StatusCreated {
		t.Fatalf("shard register: %d %s", status, body)
	}
	if !info.Sharded || info.ShardRow0 != row0 || info.ShardRow1 != row1 || info.Rows != row1-row0 || info.Cols != 40 {
		t.Fatalf("shard info = %+v", info)
	}
	checkShardPanel(t, client, base+"/v1/shard/demo/mulvecs", sub, row0, row1, 1)
}

// TestShardPanelEndpoint scatters a k-wide SpS2 panel at the mulvecs
// endpoint and confirms every vector of the SpP2 partial equals the
// matching slice of the per-vector single-node reference bit for bit.
func TestShardPanelEndpoint(t *testing.T) {
	leakcheck.Check(t)
	_, base, client, stop := startServer(t, Config{Workers: 2, EnableShard: true})
	defer stop()

	m := testmat.Random[float64](60, 40, 0.15, 7)
	m.Finalize()
	const row0, row1 = 20, 50
	sub := sliceRows(m, row0, row1)

	if status, body := doJSON(t, client, http.MethodPut,
		base+"/v1/shard/demo?row0=20&row1=50", mmBody(t, sub), nil); status != http.StatusCreated {
		t.Fatalf("shard register: %d %s", status, body)
	}
	checkShardPanel(t, client, base+"/v1/shard/demo/mulvecs", sub, row0, row1, 3)
}

// checkShardPanel posts a k-wide panel for rows [row0, row1) to url and
// checks the reply against refMul on sub, vector by vector, bit for bit.
func checkShardPanel(t *testing.T, client *http.Client, url string, sub *mat.COO[float64], row0, row1, k int) {
	t.Helper()
	xs := make([][]float64, k)
	for l := range xs {
		xs[l] = make([]float64, sub.Cols())
		for j := range xs[l] {
			xs[l][j] = math.Sin(float64(l*41 + j + 1))
		}
	}
	frame := mustEncodePanelReq(t, row0, row1, xs)
	resp, err := client.Post(url, ContentTypePanelRequest, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("k=%d: shard mulvecs: %d %s", k, resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypePanelPartial {
		t.Fatalf("k=%d: Content-Type = %q", k, ct)
	}
	r0, r1, gk, flat, err := DecodePartialPanelInto(nil, data, row1-row0, k)
	if err != nil {
		t.Fatal(err)
	}
	if r0 != row0 || r1 != row1 || gk != k {
		t.Fatalf("k=%d: panel partial [%d, %d) k=%d", k, r0, r1, gk)
	}
	ys := PanelVecs(nil, flat, row1-row0, k)
	for l := range xs {
		want := refMul(sub, xs[l])
		for i := range want {
			if math.Float64bits(ys[l][i]) != math.Float64bits(want[i]) {
				t.Fatalf("k=%d: y[%d][%d] = %g, want %g (bit-level)", k, l, i, ys[l][i], want[i])
			}
		}
	}
}

// TestShardPanelEndpointErrors covers the panel rejection paths: range
// mismatch, corruption (ErrWireChecksum → 400), an over-cap width, and
// a k=0 frame forged onto the wire.
func TestShardPanelEndpointErrors(t *testing.T) {
	leakcheck.Check(t)
	_, base, client, stop := startServer(t, Config{EnableShard: true, MaxPanelK: 4})
	defer stop()

	m := testmat.Random[float64](30, 20, 0.2, 8)
	m.Finalize()
	sub := sliceRows(m, 10, 30)
	if status, body := doJSON(t, client, http.MethodPut,
		base+"/v1/shard/ok?row0=10&row1=30", mmBody(t, sub), nil); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}

	x := testVec(20)
	post := func(frame []byte) (int, []byte) {
		t.Helper()
		resp, err := client.Post(base+"/v1/shard/ok/mulvecs", ContentTypePanelRequest, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readAll(t, resp)
	}

	// A panel claiming a different row range than the resident shard.
	if status, body := post(mustEncodePanelReq(t, 0, 20, [][]float64{x})); status != http.StatusBadRequest {
		t.Fatalf("range mismatch: %d %s", status, body)
	}
	// One corrupted element byte: checksum rejection.
	frame := mustEncodePanelReq(t, 10, 30, [][]float64{x, x})
	frame[panelReqHeaderLen+3] ^= 0x10
	if status, body := post(frame); status != http.StatusBadRequest {
		t.Fatalf("corrupted panel: %d %s", status, body)
	}
	// Width above the worker's cap.
	wide := [][]float64{x, x, x, x, x}
	if status, body := post(mustEncodePanelReq(t, 10, 30, wide)); status != http.StatusBadRequest {
		t.Fatalf("over-cap panel: %d %s", status, body)
	}
	// A forged k=0 frame (the encoder refuses to build one).
	forged := mustEncodePanelReq(t, 10, 30, [][]float64{x})
	forged[20], forged[21], forged[22], forged[23] = 0, 0, 0, 0
	if status, body := post(forged); status != http.StatusBadRequest {
		t.Fatalf("forged k=0 panel: %d %s", status, body)
	}
	// A valid panel still succeeds after the rejections, bit for bit the
	// reference product.
	status, body := post(mustEncodePanelReq(t, 10, 30, [][]float64{x}))
	if status != http.StatusOK {
		t.Fatalf("valid panel: %d %s", status, body)
	}
	_, _, _, y, err := DecodePartialPanelInto(nil, body, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := refMul(sub, x)
	for i := range want {
		if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("k=1 panel y[%d] = %g, want %g (bit-level)", i, y[i], want[i])
		}
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
