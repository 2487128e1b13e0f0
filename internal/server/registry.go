package server

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"blockspmv/internal/blocks"
	"blockspmv/internal/core"
	"blockspmv/internal/csr"
	"blockspmv/internal/floats"
	"blockspmv/internal/formats"
	"blockspmv/internal/machine"
	"blockspmv/internal/mat"
	"blockspmv/internal/metrics"
	"blockspmv/internal/overlay"
	"blockspmv/internal/profile"
)

// Config parameterizes the serving subsystem. The zero value is usable
// for tests: no size caps, no kernel profile (selection degrades to the
// CSR baseline), one worker per matrix and batching disabled.
type Config struct {
	// Mach is the host description driving format selection. A zero
	// bandwidth degrades every selection to the scalar-CSR fallback, which
	// stays fully functional.
	Mach machine.Machine
	// Prof is the kernel profile for the profiled models; nil restricts
	// selection to the streaming MEM model.
	Prof *profile.Table
	// Model overrides the selection model; nil picks OVERLAP when a
	// profile is present, MEM otherwise.
	Model core.Model

	// Workers is the pooled-executor width per matrix; <= 0 means one.
	Workers int
	// BatchMax caps the coalesced panel width; <= 1 disables batching.
	BatchMax int
	// BatchWindow is how long the batcher holds a panel open for more
	// requests, which it does only right after dispatching a panel that
	// more than one request shared; otherwise a request goes with
	// whatever is already queued, at once. <= 0 selects 200us.
	BatchWindow time.Duration
	// QueueDepth bounds each matrix's admission queue; <= 0 selects 256.
	QueueDepth int

	// MaxCacheBytes caps the summed MatrixBytes of resident matrices;
	// 0 means unbounded. Registrations evict idle matrices in LRU order
	// to fit, and fail with ErrCacheFull when eviction cannot make room.
	MaxCacheBytes int64
	// Limits bounds the declared sizes of uploaded MatrixMarket streams;
	// the zero value applies DefaultLimits, not "unlimited".
	Limits mat.Limits
	// MaxBodyBytes caps HTTP request bodies; <= 0 selects 256 MiB.
	MaxBodyBytes int64
	// RequestTimeout is the per-request deadline applied when the client
	// does not send one; <= 0 selects 30s.
	RequestTimeout time.Duration

	// Metrics receives the serving instrumentation; nil creates a private
	// registry (reachable via Server.Metrics).
	Metrics *metrics.Registry

	// EnableShard exposes the row-shard endpoints (PUT /v1/shard/{name},
	// POST /v1/shard/{name}/mulvec and /mulvecs), turning this node into a
	// shard worker a coordinator can scatter to. Off by default: a
	// standalone daemon has no business accepting partial-matrix
	// registrations.
	EnableShard bool
	// MaxPanelK caps the panel width a shard panel frame may declare;
	// <= 0 selects 1024. It bounds the worker's per-request allocation
	// the same way Limits bounds registrations: a forged k cannot force
	// a huge decode, and an honest coordinator never exceeds its own
	// BatchMax, which sits far below this.
	MaxPanelK int

	// Mutable wraps every full-matrix registration in a delta overlay so
	// it accepts point updates (POST /v1/matrix/{name}/update, or
	// Registry.Update). The COO ground truth is retained beside the tuned
	// instance — Info.Bytes grows accordingly — and a background
	// recompaction merges pending updates into a freshly re-tuned base.
	// Shard registrations and prebuilt instances are never mutable. Off
	// by default: construct-once serving pays no overlay cost.
	Mutable bool
	// RecompactAfter is the pending-scalar threshold: an update that
	// leaves at least this many pending cells on a matrix triggers its
	// background recompaction. 0 selects 4096; negative disables
	// threshold-triggered recompaction (the interval ticker, if any,
	// still runs).
	RecompactAfter int64
	// RecompactInterval periodically recompacts every mutable matrix
	// holding pending updates, regardless of how few; 0 disables the
	// ticker.
	RecompactInterval time.Duration
	// MaxUpdateBatch caps the updates accepted per request, bounding the
	// SpU1 decoder's allocation; <= 0 selects 65536.
	MaxUpdateBatch int
}

// DefaultLimits bounds uploaded matrices when Config.Limits is zero:
// far above any matrix in the paper's suite, far below a parse bomb.
var DefaultLimits = mat.Limits{MaxRows: 1 << 27, MaxCols: 1 << 27, MaxNNZ: 1 << 31}

// withDefaults resolves the documented zero-value behaviours.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.BatchMax < 1 {
		c.BatchMax = 1
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 200 * time.Microsecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Limits == (mat.Limits{}) {
		c.Limits = DefaultLimits
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxPanelK <= 0 {
		c.MaxPanelK = 1024
	}
	if c.RecompactAfter == 0 {
		c.RecompactAfter = 4096
	}
	if c.MaxUpdateBatch <= 0 {
		c.MaxUpdateBatch = 65536
	}
	if c.Model == nil {
		if c.Prof != nil {
			c.Model = core.Overlap{}
		} else {
			c.Model = core.Mem{}
		}
	}
	return c
}

// Info describes one resident matrix.
type Info struct {
	Name   string `json:"name"`
	Rows   int    `json:"rows"`
	Cols   int    `json:"cols"`
	NNZ    int64  `json:"nnz"`
	Format string `json:"format"`
	Bytes  int64  `json:"bytes"`
	// PredictedMs is the model-predicted milliseconds per multiply for
	// the selected format (0 when selection degraded without a usable
	// bandwidth).
	PredictedMs float64 `json:"predicted_ms"`
	// Degraded marks a fallback selection; Reason says why.
	Degraded bool   `json:"degraded,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Sharded marks a row-shard registration: the resident matrix holds
	// the rows [ShardRow0, ShardRow1) of a larger matrix (Rows is the
	// local row count ShardRow1-ShardRow0; Cols is the full column
	// dimension, because SpMV needs all of x).
	Sharded   bool `json:"sharded,omitempty"`
	ShardRow0 int  `json:"shard_row0,omitempty"`
	ShardRow1 int  `json:"shard_row1,omitempty"`
	// Mutable marks an overlay-wrapped registration that accepts updates;
	// Pending is its live count of pending update cells (Lookup and List
	// read it fresh). For mutable entries NNZ and Bytes are live too:
	// NNZ is the effective count including pending inserts and deletes,
	// Bytes the resident cost including the retained ground truth.
	Mutable bool  `json:"mutable,omitempty"`
	Pending int64 `json:"pending,omitempty"`
}

// mentry is one resident matrix: the autotuned instance, its pooled
// batcher, and the ref-count that defers teardown past in-flight use.
// Mutable registrations also carry their overlay (the batcher's pool
// runs over it), which keeps the COO ground truth recompaction needs.
type mentry struct {
	info Info
	bat  *batcher
	ov   *overlay.Overlay[float64] // nil for immutable entries

	refs         int   // in-flight requests holding the entry
	dead         bool  // evicted: free the batcher when refs drains to zero
	use          int64 // registry sequence number of the last acquire (LRU key)
	recompacting bool  // a background recompaction of this entry is in flight
}

// Registry resolves matrix names to autotuned, pooled, batched SpMV
// executors. Each Register parses (or accepts) one matrix, runs format
// selection once via core.SelectSafe, instantiates the winner (falling
// back to scalar CSR if the winner will not build), and starts a
// dedicated worker pool and batcher — so every subsequent request is a
// hash lookup away from an already-tuned execution path. Matrices are
// evicted in LRU order under the size cap; an evicted entry's pool is
// retired only when its last in-flight request releases it.
type Registry struct {
	cfg Config
	in  *instruments

	mu      sync.Mutex
	entries map[string]*mentry
	total   int64 // summed MatrixBytes of resident (non-dead) entries
	seq     int64
	closed  bool

	// Background recompaction machinery: Close signals stopc and waits on
	// wg so no recompactor or ticker goroutine outlives the registry.
	wg    sync.WaitGroup
	stopc chan struct{}
}

// NewRegistry builds a registry; cfg is taken by value after default
// resolution.
func NewRegistry(cfg Config, in *instruments) *Registry {
	if in == nil {
		in = newInstruments(cfg.Metrics)
	}
	g := &Registry{
		cfg: cfg.withDefaults(), in: in,
		entries: make(map[string]*mentry),
		stopc:   make(chan struct{}),
	}
	if every := g.cfg.RecompactInterval; every > 0 {
		g.wg.Add(1)
		go g.recompactTicker(every)
	}
	return g
}

// Register parses a MatrixMarket stream under the configured limits,
// autotunes it, and installs it under name, replacing any previous
// holder of the name (the old entry is evicted, and freed once idle).
func (g *Registry) Register(name string, r io.Reader) (Info, error) {
	m, err := mat.ReadMatrixMarketLimited[float64](r, g.cfg.Limits)
	if err != nil {
		return Info{}, err
	}
	return g.RegisterMatrix(name, m)
}

// RegisterMatrix autotunes and installs an assembled matrix. Under
// Config.Mutable the tuned instance is wrapped in a delta overlay and m
// is retained as its ground truth — the caller must not mutate m
// afterwards.
func (g *Registry) RegisterMatrix(name string, m *mat.COO[float64]) (Info, error) {
	info, inst, err := g.tune(name, m)
	if err != nil {
		return Info{}, err
	}
	if !g.cfg.Mutable {
		return info, g.install(name, info, inst, nil)
	}
	ov := overlay.Wrap(inst, m)
	info.Mutable = true
	info.Bytes = ov.ResidentBytes()
	return info, g.install(name, info, ov, ov)
}

// tune runs format selection for one matrix and instantiates the winner
// (CSR fallback included), returning its description without installing.
func (g *Registry) tune(name string, m *mat.COO[float64]) (Info, formats.Instance[float64], error) {
	m.Finalize()
	// Price candidates for the traffic the batcher creates: the matrix
	// stream once per panel of up to BatchMax vectors.
	rhs := g.cfg.BatchMax
	pred := core.SelectSafe(g.cfg.Model, core.WithRHS(safeStats(m), rhs), g.cfg.Mach, g.cfg.Prof)
	inst, err := buildInstance(m, pred.Cand)
	if err != nil {
		pred = core.Prediction{Degraded: true, Reason: err.Error()}
		if inst, err = buildCSR(m); err != nil {
			return Info{}, nil, fmt.Errorf("server: matrix %q unconvertible: %w", name, err)
		}
	}
	info := Info{
		Name: name, Rows: m.Rows(), Cols: m.Cols(), NNZ: int64(m.NNZ()),
		Format: inst.Name(), Bytes: inst.MatrixBytes(),
		PredictedMs: pred.Seconds / float64(max(rhs, 1)) * 1e3,
		Degraded:    pred.Degraded, Reason: pred.Reason,
	}
	return info, inst, nil
}

// checkShardShape validates a shard registration: an ordered range whose
// width matches the sub-matrix's local row count.
func checkShardShape(rows, row0, row1 int) error {
	if err := checkWireRange(row0, row1); err != nil {
		return err
	}
	if rows != row1-row0 {
		return fmt.Errorf("%w: %d local rows for range [%d, %d)", ErrWireRange, rows, row0, row1)
	}
	return nil
}

// RegisterShard parses a MatrixMarket stream holding the local rows of a
// shard and installs it as the global row range [row0, row1).
func (g *Registry) RegisterShard(name string, r io.Reader, row0, row1 int) (Info, error) {
	m, err := mat.ReadMatrixMarketLimited[float64](r, g.cfg.Limits)
	if err != nil {
		return Info{}, err
	}
	return g.RegisterShardMatrix(name, m, row0, row1)
}

// RegisterShardMatrix autotunes and installs an assembled sub-matrix as
// a row shard: m holds rows [row0, row1) of a larger matrix, renumbered
// to local rows 0..row1-row0, with the full column dimension. Shards are
// autotuned independently — each node picks the format its own row
// block's structure favours.
func (g *Registry) RegisterShardMatrix(name string, m *mat.COO[float64], row0, row1 int) (Info, error) {
	if err := checkShardShape(m.Rows(), row0, row1); err != nil {
		return Info{}, err
	}
	info, inst, err := g.tune(name, m)
	if err != nil {
		return Info{}, err
	}
	info.Sharded, info.ShardRow0, info.ShardRow1 = true, row0, row1
	return info, g.install(name, info, inst, nil)
}

// RegisterShardInstance installs a prebuilt format instance as a row
// shard, bypassing autotuning — the chaos tests use it to pin one format
// across shards and the single-node reference so results can be compared
// bit for bit.
func (g *Registry) RegisterShardInstance(name string, inst formats.Instance[float64], row0, row1 int) (Info, error) {
	if err := checkShardShape(inst.Rows(), row0, row1); err != nil {
		return Info{}, err
	}
	info := Info{
		Name: name, Rows: inst.Rows(), Cols: inst.Cols(), NNZ: inst.NNZ(),
		Format: inst.Name(), Bytes: inst.MatrixBytes(),
		Sharded: true, ShardRow0: row0, ShardRow1: row1,
	}
	return info, g.install(name, info, inst, nil)
}

// RegisterInstance installs a prebuilt format instance under name,
// bypassing parsing and autotuning. The fault-injection tests use it to
// serve wrapped panicking instances; embedders can use it to serve
// formats they constructed themselves.
func (g *Registry) RegisterInstance(name string, inst formats.Instance[float64]) (Info, error) {
	info := Info{
		Name: name, Rows: inst.Rows(), Cols: inst.Cols(), NNZ: inst.NNZ(),
		Format: inst.Name(), Bytes: inst.MatrixBytes(),
	}
	return info, g.install(name, info, inst, nil)
}

// install builds the entry's pool and batcher, then links it into the
// table under the size cap, evicting idle LRU entries as needed. ov is
// the instance's overlay for mutable registrations (inst and ov are the
// same object then), nil otherwise.
func (g *Registry) install(name string, info Info, inst formats.Instance[float64], ov *overlay.Overlay[float64]) error {
	bat := newBatcher(poolFor(inst, g.cfg.Workers), g.cfg.BatchMax, g.cfg.BatchWindow, g.cfg.QueueDepth, g.in)
	e := &mentry{info: info, bat: bat, ov: ov}

	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		bat.close()
		return ErrClosed
	}
	var freed []*batcher
	if old, ok := g.entries[name]; ok {
		freed = append(freed, g.evictLocked(name, old)...)
	}
	if cap := g.cfg.MaxCacheBytes; cap > 0 {
		for g.total+info.Bytes > cap {
			victim, vname := g.lruIdleLocked()
			if victim == nil {
				g.mu.Unlock()
				bat.close()
				return fmt.Errorf("%w: %d bytes resident + %d new > %d cap, nothing idle to evict",
					ErrCacheFull, g.total, info.Bytes, cap)
			}
			freed = append(freed, g.evictLocked(vname, victim)...)
		}
	}
	g.seq++
	e.use = g.seq
	g.entries[name] = e
	g.total += info.Bytes
	g.in.registrations.Inc()
	g.in.matrices.Set(int64(len(g.entries)))
	g.in.cacheBytes.Set(g.total)
	g.refreshOverlayGaugesLocked()
	g.mu.Unlock()

	for _, b := range freed {
		b.close()
	}
	return nil
}

// evictLocked unlinks an entry and returns the batchers to close once
// outside the lock — immediately if idle, otherwise deferred to the
// last release.
func (g *Registry) evictLocked(name string, e *mentry) []*batcher {
	delete(g.entries, name)
	e.dead = true
	g.total -= e.info.Bytes
	g.in.evictions.Inc()
	g.in.matrices.Set(int64(len(g.entries)))
	g.in.cacheBytes.Set(g.total)
	if e.refs == 0 {
		return []*batcher{e.bat}
	}
	return nil
}

// lruIdleLocked returns the least-recently-used entry with no in-flight
// requests, or nil when every resident entry is busy.
func (g *Registry) lruIdleLocked() (*mentry, string) {
	var victim *mentry
	var vname string
	for name, e := range g.entries {
		if e.refs > 0 {
			continue
		}
		if victim == nil || e.use < victim.use {
			victim, vname = e, name
		}
	}
	return victim, vname
}

// acquire pins the named entry against eviction teardown for the
// duration of one request; pair with release.
func (g *Registry) acquire(name string) (*mentry, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrClosed
	}
	e, ok := g.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.refs++
	g.seq++
	e.use = g.seq
	return e, nil
}

// release undoes acquire; the last release of a dead entry frees its
// batcher and pool.
func (g *Registry) release(e *mentry) {
	g.mu.Lock()
	e.refs--
	free := e.dead && e.refs == 0
	g.mu.Unlock()
	if free {
		e.bat.close()
	}
}

// Remove evicts the named matrix. In-flight requests against it
// complete; its pool is retired when the last one releases.
func (g *Registry) Remove(name string) bool {
	g.mu.Lock()
	e, ok := g.entries[name]
	var freed []*batcher
	if ok {
		freed = g.evictLocked(name, e)
		g.refreshOverlayGaugesLocked()
	}
	g.mu.Unlock()
	for _, b := range freed {
		b.close()
	}
	return ok
}

// liveInfo returns the entry's description; for mutable entries the
// overlay-dependent fields (Pending, NNZ, Bytes) are read fresh.
func (e *mentry) liveInfo() Info {
	info := e.info
	if e.ov != nil {
		info.Pending = e.ov.Pending()
		info.NNZ = e.ov.NNZ()
		info.Bytes = e.ov.ResidentBytes()
	}
	return info
}

// Lookup returns the named matrix's description.
func (g *Registry) Lookup(name string) (Info, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.entries[name]
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e.liveInfo(), nil
}

// List returns every resident matrix, sorted by name.
func (g *Registry) List() []Info {
	g.mu.Lock()
	infos := make([]Info, 0, len(g.entries))
	for _, e := range g.entries {
		infos = append(infos, e.liveInfo())
	}
	g.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// refreshOverlayGaugesLocked re-sums the overlay gauges over the
// resident mutable entries. Callers hold g.mu; the overlay locks nest
// inside it (the overlay never takes registry locks).
func (g *Registry) refreshOverlayGaugesLocked() {
	var pending, extra int64
	for _, e := range g.entries {
		if e.ov != nil {
			pending += e.ov.Pending()
			extra += e.ov.ExtraBytes()
		}
	}
	g.in.ovPending.Set(pending)
	g.in.ovExtraBytes.Set(extra)
}

// MulVec runs one request against the named matrix through its batcher:
// admitted into the bounded queue, coalesced into a panel when traffic
// allows, answered with a freshly allocated result vector. Errors are
// typed: ErrNotFound, ErrOverloaded, a *formats.DimError for shape
// mismatches, context errors, and the pool's panic/poisoned errors.
func (g *Registry) MulVec(ctx context.Context, name string, x []float64) ([]float64, error) {
	e, err := g.acquire(name)
	if err != nil {
		return nil, err
	}
	defer g.release(e)
	if len(x) != e.info.Cols {
		return nil, &formats.DimError{
			Format: e.info.Format, Rows: e.info.Rows, Cols: e.info.Cols,
			LenX: len(x), LenY: e.info.Rows,
		}
	}
	return e.bat.submit(ctx, x)
}

// MulVecs runs a k-wide panel against the named matrix as one batcher
// request: the whole panel is dispatched in a single MulVecs kernel
// invocation (possibly coalesced with other concurrent requests), so the
// matrix stream is paid once for all k vectors. Every xs[l] must have
// Cols elements; an empty panel is a *formats.PanelError — a request
// carrying nothing has no well-formed reply.
func (g *Registry) MulVecs(ctx context.Context, name string, xs [][]float64) ([][]float64, error) {
	e, err := g.acquire(name)
	if err != nil {
		return nil, err
	}
	defer g.release(e)
	if len(xs) == 0 {
		return nil, &formats.PanelError{Format: e.info.Format, NX: 0, NY: 0}
	}
	for _, x := range xs {
		if len(x) != e.info.Cols {
			return nil, &formats.DimError{
				Format: e.info.Format, Rows: e.info.Rows, Cols: e.info.Cols,
				LenX: len(x), LenY: e.info.Rows,
			}
		}
	}
	return e.bat.submitPanel(ctx, xs)
}

// Close drains every batcher — in-flight batches complete, queued
// requests shed with ErrOverloaded — and retires every pool, then waits
// for the recompaction ticker and any in-flight recompactors to exit.
// Further operations fail with ErrClosed. Idempotent.
func (g *Registry) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	close(g.stopc)
	bats := make([]*batcher, 0, len(g.entries))
	for name, e := range g.entries {
		delete(g.entries, name)
		e.dead = true
		bats = append(bats, e.bat)
	}
	g.total = 0
	g.in.matrices.Set(0)
	g.in.cacheBytes.Set(0)
	g.in.ovPending.Set(0)
	g.in.ovExtraBytes.Set(0)
	g.mu.Unlock()
	for _, b := range bats {
		b.close()
	}
	g.wg.Wait()
}

// safeStats enumerates candidate statistics under a recover backstop,
// mirroring the facade: a structurally corrupt matrix yields an empty
// set, which SelectSafe turns into the degraded CSR prediction.
func safeStats(m *mat.COO[float64]) (stats []core.CandidateStats) {
	defer func() {
		if recover() != nil {
			stats = nil
		}
	}()
	return core.EnumerateStatsAll(mat.PatternOf(m), floats.SizeOf[float64]())
}

// buildInstance instantiates the selected candidate under a recover
// backstop.
func buildInstance(m *mat.COO[float64], c core.Candidate) (inst formats.Instance[float64], err error) {
	defer func() {
		if r := recover(); r != nil {
			inst, err = nil, fmt.Errorf("server: constructing %s panicked: %v", c, r)
		}
	}()
	return core.Instantiate(m, c), nil
}

// buildCSR is the always-applicable fallback constructor.
func buildCSR(m *mat.COO[float64]) (inst formats.Instance[float64], err error) {
	defer func() {
		if r := recover(); r != nil {
			inst, err = nil, fmt.Errorf("server: constructing CSR panicked: %v", r)
		}
	}()
	return csr.FromCOO(m, blocks.Scalar), nil
}
