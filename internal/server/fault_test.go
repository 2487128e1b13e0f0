package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"blockspmv/internal/faultcheck"
	"blockspmv/internal/leakcheck"
	"blockspmv/internal/testmat"
	"blockspmv/internal/workpool"
)

// TestFaultIsolationAcrossMatrices is the faultcheck integration story:
// a matrix whose kernel panics poisons only its own pool. The request
// that hit the panic gets a typed kernel error (a 5xx over HTTP) while
// concurrent requests against a healthy matrix all complete — no team
// poisoning leaks across matrices, because each owns its pool.
func TestFaultIsolationAcrossMatrices(t *testing.T) {
	leakcheck.Check(t)
	g := NewRegistry(Config{Workers: 2, BatchMax: 4, BatchWindow: time.Millisecond}, nil)
	defer g.Close()

	healthy := testmat.Random[float64](40, 40, 0.2, 91)
	if _, err := g.RegisterMatrix("healthy", healthy); err != nil {
		t.Fatal(err)
	}
	bad := testmat.Random[float64](40, 40, 0.2, 92)
	badInst := buildCSR(bad)
	if _, err := g.RegisterInstance("boom", faultcheck.Wrap(badInst).FailAfter(0)); err != nil {
		t.Fatal(err)
	}

	const healthyClients = 8
	var wg sync.WaitGroup
	healthyErrs := make([]error, healthyClients)
	var boomErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, boomErr = g.MulVec(context.Background(), "boom", testVec(40))
	}()
	for c := 0; c < healthyClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			y, err := g.MulVec(context.Background(), "healthy", testVec(40))
			if err == nil {
				want := refMul(healthy, testVec(40))
				for i := range want {
					if math.Abs(y[i]-want[i]) > 1e-12 {
						err = errors.New("wrong result on healthy matrix")
						break
					}
				}
			}
			healthyErrs[c] = err
		}(c)
	}
	wg.Wait()

	var pe *workpool.PanicError
	if !errors.As(boomErr, &pe) {
		t.Fatalf("panicking matrix: err = %v, want *workpool.PanicError", boomErr)
	}
	for c, err := range healthyErrs {
		if err != nil {
			t.Errorf("healthy client %d poisoned by the other matrix's panic: %v", c, err)
		}
	}

	// The poisoned pool fails fast on subsequent requests, still typed.
	_, err := g.MulVec(context.Background(), "boom", testVec(40))
	if !errors.Is(err, workpool.ErrPoisoned) {
		var again *workpool.PanicError
		if !errors.As(err, &again) {
			t.Fatalf("poisoned matrix: err = %v, want poisoned/panic", err)
		}
	}
	// And the healthy matrix keeps serving.
	if _, err := g.MulVec(context.Background(), "healthy", testVec(40)); err != nil {
		t.Fatalf("healthy matrix after neighbour panic: %v", err)
	}
	if g.in.reqPanic.Value() == 0 {
		t.Error("panic counter not incremented")
	}
}

// TestFaultTypedHTTPResponse drives the same scenario over the wire: the
// panicking matrix answers a 500 with kind "kernel_panic" while a
// healthy matrix served concurrently answers 200.
func TestFaultTypedHTTPResponse(t *testing.T) {
	leakcheck.Check(t)
	s, base, client, stop := startServer(t, Config{Workers: 2, BatchMax: 2, BatchWindow: time.Millisecond})
	defer stop()

	healthy := testmat.Random[float64](30, 30, 0.25, 93)
	if _, err := s.Registry().RegisterMatrix("healthy", healthy); err != nil {
		t.Fatal(err)
	}
	bad := testmat.Random[float64](30, 30, 0.25, 94)
	badInst := buildCSR(bad)
	if _, err := s.Registry().RegisterInstance("boom", faultcheck.Wrap(badInst).FailOnRow(5)); err != nil {
		t.Fatal(err)
	}

	post := func(name string) (int, apiError) {
		body, _ := json.Marshal(jsonVec{X: testVec(30)})
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/matrix/"+name+"/mulvec", bytes.NewReader(body))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		var ae apiError
		json.Unmarshal(data, &ae)
		return resp.StatusCode, ae
	}

	var wg sync.WaitGroup
	var boomStatus int
	var boomErr apiError
	healthyStatuses := make([]int, 4)
	wg.Add(1)
	go func() { defer wg.Done(); boomStatus, boomErr = post("boom") }()
	for c := range healthyStatuses {
		wg.Add(1)
		go func(c int) { defer wg.Done(); healthyStatuses[c], _ = post("healthy") }(c)
	}
	wg.Wait()

	if boomStatus != http.StatusInternalServerError || boomErr.Kind != "kernel_panic" {
		t.Fatalf("panicking matrix over HTTP: %d %+v", boomStatus, boomErr)
	}
	for c, st := range healthyStatuses {
		if st != http.StatusOK {
			t.Errorf("healthy client %d: status %d", c, st)
		}
	}
}
