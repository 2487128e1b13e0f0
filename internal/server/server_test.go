package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"blockspmv/internal/leakcheck"
	"blockspmv/internal/mat"
	"blockspmv/internal/testmat"
)

// startServer boots a full server on a loopback listener and returns
// its base URL, a client, and a stop function that gracefully shuts
// down and verifies Serve returned cleanly.
func startServer(t *testing.T, cfg Config) (*Server, string, *http.Client, func()) {
	t.Helper()
	s := New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	client := &http.Client{}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
		client.CloseIdleConnections()
	}
	return s, "http://" + l.Addr().String(), client, stop
}

// mmBody renders a COO matrix as a MatrixMarket upload body.
func mmBody(t *testing.T, m *mat.COO[float64]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mat.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func doJSON(t *testing.T, client *http.Client, method, url string, body []byte, out any) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad JSON response %q: %v", data, err)
		}
	}
	return resp.StatusCode, string(data)
}

// TestServerLifecycle walks the whole API surface — register, info,
// list, JSON and binary MulVec, metrics, expvar, delete, shutdown —
// under leakcheck: after Shutdown not a single goroutine of the server
// (HTTP, batchers, worker pools) may linger.
func TestServerLifecycle(t *testing.T) {
	leakcheck.Check(t)
	_, base, client, stop := startServer(t, Config{Workers: 2, BatchMax: 4})
	defer stop()

	m := testmat.Random[float64](50, 40, 0.15, 51)
	var info Info
	status, body := doJSON(t, client, http.MethodPut, base+"/v1/matrix/demo", mmBody(t, m), &info)
	if status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	if info.Name != "demo" || info.Rows != 50 || info.Cols != 40 {
		t.Fatalf("register info = %+v", info)
	}

	var got Info
	if status, body = doJSON(t, client, http.MethodGet, base+"/v1/matrix/demo", nil, &got); status != 200 || got != info {
		t.Fatalf("info: %d %s (want %+v)", status, body, info)
	}
	var list struct {
		Matrices []Info `json:"matrices"`
	}
	if status, _ = doJSON(t, client, http.MethodGet, base+"/v1/matrices", nil, &list); status != 200 || len(list.Matrices) != 1 {
		t.Fatalf("list: %d %+v", status, list)
	}

	// JSON data plane.
	x := testVec(40)
	want := refMul(m, x)
	reqBody, _ := json.Marshal(jsonVec{X: x})
	var vec jsonVec
	if status, body = doJSON(t, client, http.MethodPost, base+"/v1/matrix/demo/mulvec", reqBody, &vec); status != 200 {
		t.Fatalf("mulvec json: %d %s", status, body)
	}
	for i := range want {
		if math.Abs(vec.Y[i]-want[i]) > 1e-12 {
			t.Fatalf("json y[%d] = %g, want %g", i, vec.Y[i], want[i])
		}
	}

	// Binary data plane.
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/matrix/demo/mulvec", bytes.NewReader(mustEncode(t, x)))
	req.Header.Set("Content-Type", ContentTypeVector)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != ContentTypeVector {
		t.Fatalf("mulvec binary: %d %s", resp.StatusCode, raw)
	}
	y, err := DecodeVector(raw, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(y[i]) != math.Float64bits(vec.Y[i]) {
			t.Fatalf("binary y[%d] = %g differs from JSON %g", i, y[i], vec.Y[i])
		}
	}

	// Observability plane.
	status, metricsText := doJSON(t, client, http.MethodGet, base+"/metrics", nil, nil)
	if status != 200 {
		t.Fatalf("/metrics: %d", status)
	}
	for _, want := range []string{
		"spmvd_requests_total 2", "spmvd_requests_ok_total 2",
		"spmvd_matrices 1", "# TYPE spmvd_request_seconds histogram",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsText)
		}
	}
	var vars map[string]json.RawMessage
	if status, body = doJSON(t, client, http.MethodGet, base+"/debug/vars", nil, &vars); status != 200 {
		t.Fatalf("/debug/vars: %d %s", status, body)
	}
	var snap map[string]any
	if err := json.Unmarshal(vars["spmvd"], &snap); err != nil {
		t.Fatalf("expvar spmvd key: %v (%s)", err, body)
	}
	if snap["spmvd_requests_ok_total"].(float64) != 2 {
		t.Fatalf("expvar snapshot = %v", snap["spmvd_requests_ok_total"])
	}
	if status, _ = doJSON(t, client, http.MethodGet, base+"/healthz", nil, nil); status != 200 {
		t.Fatalf("/healthz: %d", status)
	}

	// Error mapping: unknown name, bad payloads, shape mismatch.
	if status, body = doJSON(t, client, http.MethodPost, base+"/v1/matrix/ghost/mulvec", reqBody, nil); status != http.StatusNotFound {
		t.Fatalf("unknown matrix: %d %s", status, body)
	}
	if status, body = doJSON(t, client, http.MethodPost, base+"/v1/matrix/demo/mulvec", []byte("{bad json"), nil); status != http.StatusBadRequest {
		t.Fatalf("bad json: %d %s", status, body)
	}
	shortBody, _ := json.Marshal(jsonVec{X: testVec(3)})
	if status, body = doJSON(t, client, http.MethodPost, base+"/v1/matrix/demo/mulvec", shortBody, nil); status != http.StatusBadRequest {
		t.Fatalf("shape mismatch: %d %s", status, body)
	}
	req, _ = http.NewRequest(http.MethodPost, base+"/v1/matrix/demo/mulvec", bytes.NewReader([]byte("garbage")))
	req.Header.Set("Content-Type", ContentTypeVector)
	if resp, err = client.Do(req); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage binary payload: %d", resp.StatusCode)
	}
	if status, body = doJSON(t, client, http.MethodPut, base+"/v1/matrix/junk", []byte("not a matrix"), nil); status != http.StatusBadRequest && status != http.StatusInternalServerError {
		t.Fatalf("malformed upload: %d %s", status, body)
	}

	// Removal.
	if status, _ = doJSON(t, client, http.MethodDelete, base+"/v1/matrix/demo", nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete: %d", status)
	}
	if status, _ = doJSON(t, client, http.MethodDelete, base+"/v1/matrix/demo", nil, nil); status != http.StatusNotFound {
		t.Fatalf("double delete: %d", status)
	}
}

// TestServerUploadLimit maps oversized declared matrices to 413.
func TestServerUploadLimit(t *testing.T) {
	leakcheck.Check(t)
	_, base, client, stop := startServer(t, Config{Limits: mat.Limits{MaxRows: 8, MaxCols: 8, MaxNNZ: 8}})
	defer stop()
	body := []byte("%%MatrixMarket matrix coordinate real general\n100 100 1\n1 1 1.0\n")
	if status, resp := doJSON(t, client, http.MethodPut, base+"/v1/matrix/huge", body, nil); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: %d %s", status, resp)
	}
}

// TestServerTimeoutHeader routes a tiny client deadline through the
// batcher and maps the expiry to 504.
func TestServerTimeoutHeader(t *testing.T) {
	leakcheck.Check(t)
	s, base, client, stop := startServer(t, Config{Workers: 1, BatchMax: 1, QueueDepth: 4})
	defer stop()
	m := testmat.Random[float64](20, 20, 0.3, 61)
	inst := buildCSR(m)
	if _, err := s.Registry().RegisterInstance("slow", &slowInst[float64]{Instance: inst, d: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	// A first request occupies the pool so the timed one waits its
	// deadline out in the queue.
	go func() {
		body, _ := json.Marshal(jsonVec{X: testVec(20)})
		doJSON(t, &http.Client{}, http.MethodPost, base+"/v1/matrix/slow/mulvec", body, nil)
	}()
	time.Sleep(30 * time.Millisecond)

	body, _ := json.Marshal(jsonVec{X: testVec(20)})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/matrix/slow/mulvec", bytes.NewReader(body))
	req.Header.Set("Spmvd-Timeout", "20ms")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apiErr apiError
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &apiErr)
	if resp.StatusCode != http.StatusGatewayTimeout || apiErr.Kind != "deadline_exceeded" {
		t.Fatalf("timed-out request: %d %s", resp.StatusCode, data)
	}
	if _, err := doJSONStatusOnly(client, http.MethodGet, base+"/healthz"); err != nil {
		t.Fatal(err)
	}

	// Bad timeout header is a 400.
	req, _ = http.NewRequest(http.MethodPost, base+"/v1/matrix/slow/mulvec", bytes.NewReader(body))
	req.Header.Set("Spmvd-Timeout", "yesterday")
	if resp, err = client.Do(req); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout header: %d", resp.StatusCode)
	}
}

func doJSONStatusOnly(client *http.Client, method, url string) (int, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestServerShutdownDrainsAndSheds is the acceptance-criteria shutdown
// story over real HTTP: with a slow matrix saturated by clients,
// Shutdown lets the in-flight batch finish (some 200s), sheds the
// queued requests as 503 "overloaded", and leaves zero goroutines.
func TestServerShutdownDrainsAndSheds(t *testing.T) {
	leakcheck.Check(t)
	s, base, client, stop := startServer(t, Config{Workers: 1, BatchMax: 1, QueueDepth: 8})
	m := testmat.Random[float64](30, 30, 0.2, 71)
	inst := buildCSR(m)
	if _, err := s.Registry().RegisterInstance("slow", &slowInst[float64]{Instance: inst, d: 80 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	const clients = 6
	statuses := make([]int, clients)
	kinds := make([]string, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body, _ := json.Marshal(jsonVec{X: testVec(30)})
			req, _ := http.NewRequest(http.MethodPost, base+"/v1/matrix/slow/mulvec", bytes.NewReader(body))
			resp, err := client.Do(req)
			if err != nil {
				statuses[c] = -1
				return
			}
			defer resp.Body.Close()
			statuses[c] = resp.StatusCode
			var apiErr apiError
			data, _ := io.ReadAll(resp.Body)
			json.Unmarshal(data, &apiErr)
			kinds[c] = apiErr.Kind
		}(c)
	}
	time.Sleep(40 * time.Millisecond) // one executing, the rest queued
	stop()                            // graceful Shutdown
	wg.Wait()

	var ok, shed int
	for c := 0; c < clients; c++ {
		switch {
		case statuses[c] == http.StatusOK:
			ok++
		case statuses[c] == http.StatusServiceUnavailable && (kinds[c] == "overloaded" || kinds[c] == "shutting_down"):
			shed++
		default:
			t.Errorf("client %d: status %d kind %q", c, statuses[c], kinds[c])
		}
	}
	if ok == 0 {
		t.Error("no in-flight request was drained to completion")
	}
	if shed == 0 {
		t.Error("no queued request was shed with a typed overloaded response")
	}
}

// TestServerRejectsAfterShutdown maps post-shutdown traffic to typed
// unavailability (the listener is gone, so this exercises the registry
// path through a second in-process handler call).
func TestServerRejectsAfterShutdown(t *testing.T) {
	leakcheck.Check(t)
	s := New(Config{})
	m := testmat.Random[float64](10, 10, 0.4, 81)
	if _, err := s.Registry().RegisterMatrix("m", m); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().MulVec(context.Background(), "m", testVec(10)); err == nil {
		t.Fatal("MulVec after Shutdown succeeded")
	}
}
