package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"blockspmv/internal/leakcheck"
	"blockspmv/internal/mat"
	"blockspmv/internal/suite"
	"blockspmv/internal/testmat"
)

// discardWriter is a ResponseWriter that keeps only the status and the
// reply length, so a handler measured through it pays no response
// plumbing of its own.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header { return d.h }

func (d *discardWriter) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}

func (d *discardWriter) Write(p []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	d.n += len(p)
	return len(p), nil
}

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// mulVecRig sends binary /mulvec requests for one x straight through
// Server.Handler(), reusing the request and a discarding writer, so a
// benchmark or allocation count sees the handler and the layers below
// it and nothing of a client or a connection.
type mulVecRig struct {
	h     http.Handler
	req   *http.Request
	body  *bytes.Reader
	w     discardWriter
	frame []byte
	reply int // expected reply length
}

func newMulVecRig(tb testing.TB, m *mat.COO[float64]) *mulVecRig {
	tb.Helper()
	s := New(Config{Workers: 1})
	tb.Cleanup(func() { s.Close() })
	if _, err := s.Registry().RegisterMatrix("g", m); err != nil {
		tb.Fatal(err)
	}
	frame, err := EncodeVector(testVec(m.Cols()))
	if err != nil {
		tb.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/matrix/g/mulvec", nil)
	if err != nil {
		tb.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeVector)
	req.ContentLength = int64(len(frame))
	g := &mulVecRig{h: s.Handler(), req: req, body: bytes.NewReader(frame),
		w: discardWriter{h: make(http.Header)}, frame: frame, reply: wireHeaderLen + 8*m.Rows()}
	req.Body = rewindBody{g.body}
	return g
}

// do sends one request and fails unless it is answered 200 with a
// whole vector.
func (g *mulVecRig) do(tb testing.TB) {
	g.body.Reset(g.frame)
	g.w.status, g.w.n = 0, 0
	g.h.ServeHTTP(&g.w, g.req)
	if g.w.status != http.StatusOK || g.w.n != g.reply {
		tb.Fatalf("mulvec: status %d, %d reply bytes, want 200 and %d", g.w.status, g.w.n, g.reply)
	}
}

// BenchmarkMulVecHandler times one binary /mulvec through the handler
// on the serve-http workload's matrix, a 60k-row power-law graph with
// 480 KB x and y frames; -benchmem shows what each request allocates.
func BenchmarkMulVecHandler(b *testing.B) {
	g := newMulVecRig(b, suite.PowerLaw[float64](60000, 8, 1.8, 1))
	for range 10 {
		g.do(b)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(g.frame) + g.reply))
	b.ResetTimer()
	for range b.N {
		g.do(b)
	}
}

// TestMulVecHandlerAllocs pins the pooled data plane: once warm, a
// binary /mulvec on a 60k-column matrix allocates a few small objects
// per request — no body, x, y or reply buffer, each 480 KB here.
func TestMulVecHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops items by design")
	}
	g := newMulVecRig(t, suite.PowerLaw[float64](60000, 8, 1.8, 1))
	for range 10 {
		g.do(t)
	}
	const requests = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range requests {
		g.do(t)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / requests; per >= 64<<10 {
		t.Fatalf("%d bytes allocated per request, want under 64 KiB", per)
	}
}

// chunkedReader hides its length from the HTTP client, which then sends
// the body chunked (ContentLength -1).
type chunkedReader struct{ r io.Reader }

func (c chunkedReader) Read(p []byte) (int, error) { return c.r.Read(p) }

// TestDataPlaneBodyEdges sends the data plane bodies at and past their
// limits: a declared length over MaxBodyBytes and a chunked body that
// crosses it are 413 body_too_large, binary frames one byte short or
// long are 400 bad_request naming the wire error, each of those moves
// the bad-request counter by exactly one, and a declared length near the
// cap over a short body allocates nothing near the cap. JSON and binary
// replies declare their length, and a JSON reply that cannot be encoded
// is a typed error.
func TestDataPlaneBodyEdges(t *testing.T) {
	leakcheck.Check(t)
	const maxBody = 4096
	s, base, client, stop := startServer(t, Config{MaxBodyBytes: maxBody, EnableShard: true})
	defer stop()
	// 300 columns: a 2412-byte x frame fits the cap; 400 rows: the
	// 3212-byte reply is larger than net/http's buffer, so it would go out
	// chunked unless the handler declares its length.
	m := testmat.Random[float64](400, 300, 0.05, 21)
	if _, err := s.Registry().RegisterMatrix("m", m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().RegisterShardMatrix("sh", sliceRows(m, 100, 400), 100, 400); err != nil {
		t.Fatal(err)
	}
	x := testVec(300)
	frame, err := EncodeVector(x)
	if err != nil {
		t.Fatal(err)
	}

	post := func(url, contentType string, body io.Reader, contentLength int64) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+url, body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		req.ContentLength = contentLength
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, readAll(t, resp)
	}
	reject := func(what, url, contentType string, body io.Reader, contentLength int64, status int, kind string, cause error) {
		t.Helper()
		before := s.in.reqBad.Value()
		resp, data := post(url, contentType, body, contentLength)
		var ae apiError
		json.Unmarshal(data, &ae)
		if resp.StatusCode != status || ae.Kind != kind {
			t.Fatalf("%s: %d %s, want %d %s", what, resp.StatusCode, data, status, kind)
		}
		if cause != nil && !strings.Contains(ae.Error, cause.Error()) {
			t.Fatalf("%s: error %q does not name %q", what, ae.Error, cause)
		}
		if got := s.in.reqBad.Value() - before; got != 1 {
			t.Fatalf("%s: bad-request counter moved by %d, want 1", what, got)
		}
	}
	over := bytes.Repeat([]byte{0x5a}, 2*maxBody)
	for _, url := range []string{"/v1/matrix/m/mulvec", "/v1/shard/sh/mulvecs"} {
		reject(url+": declared length over the cap", url, ContentTypeVector,
			bytes.NewReader(over), int64(len(over)), http.StatusRequestEntityTooLarge, "body_too_large", nil)
		reject(url+": chunked body over the cap", url, ContentTypeVector,
			chunkedReader{bytes.NewReader(over)}, -1, http.StatusRequestEntityTooLarge, "body_too_large", nil)
	}
	short, long := frame[:len(frame)-1], append(append([]byte(nil), frame...), 0)
	reject("one byte short", "/v1/matrix/m/mulvec", ContentTypeVector,
		bytes.NewReader(short), int64(len(short)), http.StatusBadRequest, "bad_request", ErrWireTruncated)
	reject("one byte long", "/v1/matrix/m/mulvec", ContentTypeVector,
		bytes.NewReader(long), int64(len(long)), http.StatusBadRequest, "bad_request", ErrWireTrailing)

	want := refMul(m, x)
	check := func(what string, resp *http.Response, y []float64) {
		t.Helper()
		if resp.ContentLength < 0 || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: reply sent chunked, want a declared Content-Length", what)
		}
		for i := range want {
			if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: y[%d] = %g, want %g", what, i, y[i], want[i])
			}
		}
	}
	resp, data := post("/v1/matrix/m/mulvec", ContentTypeVector, bytes.NewReader(frame), int64(len(frame)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary: %d %s", resp.StatusCode, data)
	}
	y, err := DecodeVector(data, m.Rows())
	if err != nil {
		t.Fatal(err)
	}
	check("binary", resp, y)
	// The JSON form of the same x is longer than the cap; a shorter x
	// keeps it under.
	xj := make([]float64, 300)
	for i := range xj {
		xj[i] = float64(i % 3)
	}
	want = refMul(m, xj)
	body, _ := json.Marshal(jsonVec{X: xj})
	resp, data = post("/v1/matrix/m/mulvec", "application/json", bytes.NewReader(body), int64(len(body)))
	var jv jsonVec
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &jv) != nil || len(jv.Y) != m.Rows() {
		t.Fatalf("JSON: %d %s", resp.StatusCode, data)
	}
	check("JSON", resp, jv.Y)
	// JSON cannot carry an infinite product. The reply is built before any
	// of it is sent, so the request gets a typed error, not an empty 200.
	ovf := mat.New[float64](1, 1)
	ovf.Add(0, 0, 2)
	ovf.Finalize()
	if _, err := s.Registry().RegisterMatrix("ovf", ovf); err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(jsonVec{X: []float64{math.MaxFloat64}})
	resp, data = post("/v1/matrix/ovf/mulvec", "application/json", bytes.NewReader(body), int64(len(body)))
	var ae apiError
	json.Unmarshal(data, &ae)
	if resp.StatusCode != http.StatusInternalServerError || ae.Kind != "internal" || !strings.Contains(ae.Error, "unsupported value") {
		t.Fatalf("JSON reply with an infinite product: %d %s", resp.StatusCode, data)
	}

	// A peer may declare any length up to the cap and send a short body:
	// the buffer is sized by what the matrix accepts, not by the claim.
	big := New(Config{MaxBodyBytes: 64 << 20})
	defer big.Close()
	if _, err := big.Registry().RegisterMatrix("m", m); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req := httptest.NewRequest(http.MethodPost, "/v1/matrix/m/mulvec", bytes.NewReader(frame[:100]))
	req.Header.Set("Content-Type", ContentTypeVector)
	req.ContentLength = 64<<20 - 1
	rec := httptest.NewRecorder()
	big.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), ErrWireTruncated.Error()) {
		t.Fatalf("short body under a long declared length: %d %s", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("short body under a 64 MiB declared length allocated %d bytes", got)
	}
}

// postVec sends x to url as a binary /mulvec with the given
// Spmvd-Timeout ("" for none) and returns the status and reply body.
func postVec(t *testing.T, client *http.Client, url string, x []float64, timeout string) (int, []byte) {
	t.Helper()
	frame, err := EncodeVector(x)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(frame))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	req.Header.Set("Content-Type", ContentTypeVector)
	if timeout != "" {
		req.Header.Set("Spmvd-Timeout", timeout)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, data
}

// freshProduct is Registry.MulVec on a fresh CSR instance of m, the
// reference the pooled data plane must match bit for bit.
func freshProduct(t *testing.T, m *mat.COO[float64], x []float64) []float64 {
	t.Helper()
	g := NewRegistry(Config{}, nil)
	defer g.Close()
	if _, err := g.RegisterInstance("m", buildCSR(m)); err != nil {
		t.Fatal(err)
	}
	y, err := g.MulVec(t.Context(), "m", x)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

// checkReply decodes a binary /mulvec reply and compares it with want
// bit for bit.
func checkReply(t *testing.T, what string, status int, data []byte, want []float64) {
	t.Helper()
	if status != http.StatusOK {
		t.Fatalf("%s: %d %s", what, status, data)
	}
	y, err := DecodeVector(data, len(want))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i := range want {
		if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: y[%d] = %g, want %g", what, i, y[i], want[i])
		}
	}
}

// distinctVec is testVec(n) shifted by c, so requests with different c
// cannot pass for one another.
func distinctVec(n, c int) []float64 {
	x := testVec(n)
	for i := range x {
		x[i] += float64(c)
	}
	return x
}

// TestMulVecPooledAfterTimeout holds a binary /mulvec in the kernel
// behind a closed gate until its Spmvd-Timeout expires: it answers 504,
// and its x and y must not go back to the pool, because the kernel
// still writes y when the gate opens. The test takes every buffer the
// pool holds at that point, marks it, and checks after the gate opens
// that the kernel wrote into none of them. With one P the pool hands
// out everything it was given, so a handler that repooled on the
// timeout fails here every time; under the race detector, whose pool
// drops a quarter of what it is given, most times. Requests queued
// behind the gate and sent after it opens all match Registry.MulVec on
// a fresh instance bit for bit.
func TestMulVecPooledAfterTimeout(t *testing.T) {
	leakcheck.Check(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, base, client, stop := startServer(t, Config{Workers: 1, BatchMax: 4, QueueDepth: 16})
	defer stop()
	m := testmat.Random[float64](300, 200, 0.05, 31)
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	defer open()
	if _, err := s.Registry().RegisterInstance("m", &slowInst[float64]{Instance: buildCSR(m), gate: gate}); err != nil {
		t.Fatal(err)
	}
	url := base + "/v1/matrix/m/mulvec"

	// The deadline outlasts the gather window by far, so the request is in
	// the kernel, not the queue, when it expires, even on a loaded host.
	status, data := postVec(t, client, url, distinctVec(200, 0), "250ms")
	var ae apiError
	json.Unmarshal(data, &ae)
	if status != http.StatusGatewayTimeout || ae.Kind != "deadline_exceeded" {
		t.Fatalf("timed-out request: %d %s", status, data)
	}
	if n := s.in.batchSize.Count(); n != 1 {
		t.Fatalf("%d dispatches before the gate opened, want the timed-out request's", n)
	}
	// A finite mark: a kernel adding into it changes it, where a NaN would
	// carry its bits through the sum.
	const mark = 0x3ff0_dead_beef_0001
	held := make([]*[]float64, 32)
	for i := range held {
		held[i] = vecScratch.Get().(*[]float64)
		v := (*held[i])[:cap(*held[i])]
		for j := range v {
			v[j] = math.Float64frombits(mark)
		}
	}

	const queued = 4
	var wg sync.WaitGroup
	statuses := make([]int, queued)
	replies := make([][]byte, queued)
	for c := range queued {
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[c], replies[c] = postVec(t, client, url, distinctVec(200, c+1), "")
		}()
	}
	waitFor(t, "the requests queued behind the gate", func() bool { return s.in.queueDepth.Value() == queued })
	open()
	wg.Wait()
	for c := range queued {
		checkReply(t, "queued request", statuses[c], replies[c], freshProduct(t, m, distinctVec(200, c+1)))
	}
	for i, p := range held {
		for j, v := range (*p)[:cap(*p)] {
			if math.Float64bits(v) != mark {
				t.Fatalf("pooled buffer %d: element %d overwritten after the pool handed it out: "+
					"a timed-out request's scratch went back to the pool", i, j)
			}
		}
	}
	for c := range 3 {
		x := distinctVec(200, 10+c)
		status, data := postVec(t, client, url, x, "")
		checkReply(t, "request after the gate opened", status, data, freshProduct(t, m, x))
	}
}

// TestMulVecPooledEmptyRows alternates two x vectors on a matrix with
// empty rows, binary and JSON, after filling the pool with NaN-filled
// buffers: a reused y must be overwritten everywhere, empty rows
// included, and never keep the previous reply.
func TestMulVecPooledEmptyRows(t *testing.T) {
	leakcheck.Check(t)
	s, base, client, stop := startServer(t, Config{Workers: 2})
	defer stop()
	src := testmat.Random[float64](120, 90, 0.1, 41)
	m := mat.New[float64](120, 90)
	for _, e := range src.Entries() {
		if e.Row%3 != 0 { // every third row empty
			m.Add(e.Row, e.Col, e.Val)
		}
	}
	m.Finalize()
	if _, err := s.Registry().RegisterMatrix("m", m); err != nil {
		t.Fatal(err)
	}
	for range 8 {
		p := vecScratch.Get().(*[]float64)
		v := (*p)[:cap(*p)]
		for j := range v {
			v[j] = math.NaN()
		}
		vecScratch.Put(p)
	}
	url := base + "/v1/matrix/m/mulvec"
	xs := [2][]float64{distinctVec(90, 1), distinctVec(90, -7)}
	wants := [2][]float64{freshProduct(t, m, xs[0]), freshProduct(t, m, xs[1])}
	for i := range 12 {
		x, want := xs[i%2], wants[i%2]
		if i%4 != 3 {
			status, data := postVec(t, client, url, x, "")
			checkReply(t, "binary request", status, data, want)
			continue
		}
		body, _ := json.Marshal(jsonVec{X: x})
		var jv jsonVec
		if status, data := doJSON(t, client, http.MethodPost, url, body, &jv); status != http.StatusOK {
			t.Fatalf("JSON request %d: %d %s", i, status, data)
		}
		frame, err := EncodeVector(jv.Y)
		if err != nil {
			t.Fatal(err)
		}
		checkReply(t, "JSON request", http.StatusOK, frame, want)
	}
}
