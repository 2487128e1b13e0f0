package server

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"blockspmv/internal/blocks"
	"blockspmv/internal/csr"
	"blockspmv/internal/leakcheck"
	"blockspmv/internal/mat"
	"blockspmv/internal/testmat"
)

// refMul computes the reference y = A*x straight off the COO triplets.
func refMul(m *mat.COO[float64], x []float64) []float64 {
	y := make([]float64, m.Rows())
	m.MulVec(x, y)
	return y
}

func testVec(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i + 1))
	}
	return x
}

func TestRegistryRegisterAndMulVec(t *testing.T) {
	leakcheck.Check(t)
	g := NewRegistry(Config{Workers: 2}, nil)
	defer g.Close()

	m := testmat.Random[float64](60, 40, 0.15, 1)
	info, err := g.RegisterMatrix("m", m)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 60 || info.Cols != 40 || info.NNZ != int64(m.NNZ()) {
		t.Fatalf("info = %+v", info)
	}
	// No measured bandwidth in the zero Machine: selection degrades to
	// the always-safe CSR baseline but stays serviceable.
	if !info.Degraded || !strings.Contains(info.Format, "CSR") {
		t.Fatalf("expected degraded CSR selection, got %+v", info)
	}

	x := testVec(40)
	y, err := g.MulVec(context.Background(), "m", x)
	if err != nil {
		t.Fatal(err)
	}
	want := refMul(m, x)
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}

	if _, err := g.MulVec(context.Background(), "nope", x); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown matrix: err = %v, want ErrNotFound", err)
	}
	if _, err := g.MulVec(context.Background(), "m", testVec(7)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestRegistryParseAndLimits(t *testing.T) {
	leakcheck.Check(t)
	g := NewRegistry(Config{Limits: mat.Limits{MaxRows: 4, MaxCols: 4, MaxNNZ: 4}}, nil)
	defer g.Close()

	if _, err := g.Register("ok", strings.NewReader(
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.0\n2 2 4.0\n")); err != nil {
		t.Fatal(err)
	}
	y, err := g.MulVec(context.Background(), "ok", []float64{1, 2})
	if err != nil || y[0] != 3 || y[1] != 8 {
		t.Fatalf("y = %v, err = %v", y, err)
	}

	if _, err := g.Register("big", strings.NewReader(
		"%%MatrixMarket matrix coordinate real general\n100 100 1\n1 1 1.0\n")); !errors.Is(err, mat.ErrLimit) {
		t.Fatalf("oversized upload: err = %v, want mat.ErrLimit", err)
	}
	if _, err := g.Register("junk", strings.NewReader("not a matrix")); err == nil {
		t.Fatal("malformed upload accepted")
	}
}

// bytesOf reports the CSR footprint the degraded selection will install,
// so the eviction tests can pick meaningful cache caps.
func bytesOf(m *mat.COO[float64]) int64 {
	return csr.FromCOO(m, blocks.Scalar).MatrixBytes()
}

func TestRegistryEvictionLRU(t *testing.T) {
	leakcheck.Check(t)
	m1 := testmat.Random[float64](40, 30, 0.2, 11)
	m2 := testmat.Random[float64](40, 30, 0.2, 12)
	m3 := testmat.Random[float64](40, 30, 0.2, 13)
	cap := bytesOf(m1) + bytesOf(m2) + bytesOf(m3)/2 // room for two

	g := NewRegistry(Config{Workers: 2, MaxCacheBytes: cap}, nil)
	defer g.Close()
	for name, m := range map[string]*mat.COO[float64]{"m1": m1, "m2": m2} {
		if _, err := g.RegisterMatrix(name, m); err != nil {
			t.Fatal(err)
		}
	}
	// Touch m1 so m2 becomes the LRU entry.
	if _, err := g.MulVec(context.Background(), "m1", testVec(30)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RegisterMatrix("m3", m3); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Lookup("m2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU entry m2 still resident: %v", err)
	}
	if _, err := g.Lookup("m1"); err != nil {
		t.Fatalf("recently used m1 evicted: %v", err)
	}
	if got := len(g.List()); got != 2 {
		t.Fatalf("%d matrices resident, want 2", got)
	}
}

// TestRegistryRefCountedEviction pins an entry with an in-flight
// acquire: eviction must not tear it down (registration fails with
// ErrCacheFull while it is the only candidate), and after release the
// space is reclaimable.
func TestRegistryRefCountedEviction(t *testing.T) {
	leakcheck.Check(t)
	m1 := testmat.Random[float64](40, 30, 0.2, 21)
	m2 := testmat.Random[float64](40, 30, 0.2, 22)
	g := NewRegistry(Config{Workers: 2, MaxCacheBytes: bytesOf(m1) + bytesOf(m2)/2}, nil)
	defer g.Close()

	if _, err := g.RegisterMatrix("m1", m1); err != nil {
		t.Fatal(err)
	}
	e, err := g.acquire("m1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RegisterMatrix("m2", m2); !errors.Is(err, ErrCacheFull) {
		t.Fatalf("registration over a busy cache: err = %v, want ErrCacheFull", err)
	}
	// The pinned entry still serves while unevictable.
	if _, err := e.bat.submitPanel(context.Background(), [][]float64{testVec(30)}); err != nil {
		t.Fatalf("pinned entry refused work: %v", err)
	}
	g.release(e)
	if _, err := g.RegisterMatrix("m2", m2); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if _, err := g.Lookup("m1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("idle m1 not evicted to make room")
	}
}

// TestRegistryRemoveWithInFlight verifies deferred teardown: a removed
// matrix disappears from the namespace immediately but keeps serving
// the request that already acquired it; the last release frees the pool
// (leakcheck above catches it if not).
func TestRegistryRemoveWithInFlight(t *testing.T) {
	leakcheck.Check(t)
	g := NewRegistry(Config{Workers: 2}, nil)
	defer g.Close()
	m := testmat.Random[float64](40, 30, 0.2, 31)
	if _, err := g.RegisterMatrix("m", m); err != nil {
		t.Fatal(err)
	}
	e, err := g.acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Remove("m") {
		t.Fatal("Remove returned false")
	}
	if g.Remove("m") {
		t.Fatal("second Remove returned true")
	}
	if _, err := g.MulVec(context.Background(), "m", testVec(30)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed matrix still resolvable: %v", err)
	}
	ys, err := e.bat.submitPanel(context.Background(), [][]float64{testVec(30)})
	if err != nil {
		t.Fatalf("in-flight use of removed matrix failed: %v", err)
	}
	want := refMul(m, testVec(30))
	for i := range want {
		if math.Abs(ys[0][i]-want[i]) > 1e-12 {
			t.Fatalf("y[%d] = %g, want %g", i, ys[0][i], want[i])
		}
	}
	g.release(e)

	if _, err := g.acquire("m"); !errors.Is(err, ErrNotFound) {
		t.Fatal("released dead entry re-acquirable")
	}
}

func TestRegistryClosed(t *testing.T) {
	leakcheck.Check(t)
	g := NewRegistry(Config{}, nil)
	m := testmat.Random[float64](10, 10, 0.3, 41)
	if _, err := g.RegisterMatrix("m", m); err != nil {
		t.Fatal(err)
	}
	g.Close()
	g.Close() // idempotent
	if _, err := g.MulVec(context.Background(), "m", testVec(10)); !errors.Is(err, ErrClosed) {
		t.Fatalf("MulVec after Close: err = %v, want ErrClosed", err)
	}
	if _, err := g.RegisterMatrix("n", m); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Close: err = %v, want ErrClosed", err)
	}
}
