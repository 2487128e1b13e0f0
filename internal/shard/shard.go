package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blockspmv/internal/formats"
	"blockspmv/internal/mat"
	"blockspmv/internal/metrics"
	"blockspmv/internal/overlay"
	"blockspmv/internal/server"
)

// Replica is one copy of a shard: a worker address and the name the
// shard's rows are registered under there.
type Replica struct {
	Addr   string // worker host:port
	Matrix string // registered shard name on that worker
}

// Spec binds a global row range to the replicas serving it.
type Spec struct {
	Row0, Row1 int
	Replicas   []Replica
}

// Options tunes the robustness envelope. The zero value is serviceable:
// 30s budget, 3 attempts, 2ms..50ms backoff, breaker after 5 failures
// with a 500ms cooldown, hedging disabled.
type Options struct {
	// Timeout is the whole-MulVec budget; the remaining budget is
	// propagated to workers in the Spmvd-Timeout header so a worker never
	// computes past the caller's interest. <= 0 selects 30s.
	Timeout time.Duration
	// AttemptTimeout bounds one attempt (including its hedge); <= 0
	// selects the whole budget — retries then only trigger on fast
	// failures, never on stragglers.
	AttemptTimeout time.Duration
	// MaxAttempts bounds tries per shard per call, replica failover
	// included. <= 0 selects 3.
	MaxAttempts int
	// RetryBase and RetryMax shape the exponential backoff between
	// attempts (base doubles per attempt, capped at max, plus up to 50%
	// jitter so synchronized retries from concurrent calls spread out).
	// <= 0 select 2ms and 50ms.
	RetryBase, RetryMax time.Duration
	// HedgeAfter launches a second request against another replica when
	// the first has not answered within this duration; first answer wins,
	// the loser is canceled. <= 0 disables hedging.
	HedgeAfter time.Duration
	// BreakerAfter opens a replica's circuit breaker after this many
	// consecutive failures; BreakerCooldown is how long it stays open
	// before a half-open probe. <= 0 select 5 and 500ms.
	BreakerAfter    int
	BreakerCooldown time.Duration
	// BatchMax enables the coordinator-side batcher: MulVec callers
	// that are queued together are coalesced into panels of up to this
	// many right-hand sides before scattering, so each shard receives one
	// SpS2 frame per panel — and streams its row block once per panel —
	// instead of one frame per call. <= 1 disables batching (the
	// default): every call scatters immediately as a panel of one.
	BatchMax int
	// BatchWindow is how long the batcher holds a panel open for more
	// callers, which it does only right after scattering a panel that
	// more than one caller shared; otherwise a caller goes with whatever
	// is already queued, at once. <= 0 with BatchMax > 1 selects 200us.
	BatchWindow time.Duration
	// QueueDepth bounds the batcher's admission queue; <= 0 selects 256.
	// A full queue sheds new callers with server.ErrOverloaded.
	QueueDepth int
	// Transport overrides the HTTP transport; nil builds a private one.
	// Close calls CloseIdleConnections on whichever is used.
	Transport *http.Transport
	// Metrics receives the coordinator instrumentation; nil creates a
	// private registry (reachable via Metrics()).
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = o.Timeout
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 2 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 50 * time.Millisecond
	}
	if o.BreakerAfter <= 0 {
		o.BreakerAfter = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 500 * time.Millisecond
	}
	if o.BatchWindow <= 0 {
		o.BatchWindow = 200 * time.Microsecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	return o
}

// replicaState pairs a replica with its circuit breaker.
type replicaState struct {
	rep Replica
	br  *breaker
}

// shardState is one row range and its replica set.
type shardState struct {
	row0, row1 int
	reps       []*replicaState
	next       atomic.Int64 // round-robin cursor
}

// pick returns a breaker-admitted replica, round-robin, preferring one
// different from exclude (the hedge's primary); nil when every breaker
// refuses.
func (sh *shardState) pick(exclude *replicaState) *replicaState {
	n := len(sh.reps)
	start := int(sh.next.Add(1)-1) % n
	for k := 0; k < n; k++ {
		rs := sh.reps[(start+k)%n]
		if rs == exclude {
			continue
		}
		if rs.br.allow() {
			return rs
		}
	}
	// Hedging with a single live replica: a second connection to the same
	// worker still dodges a sick TCP stream.
	if exclude != nil && exclude.br.allow() {
		return exclude
	}
	return nil
}

// Coordinator scatters MulVec calls across row shards and gathers the
// partials. Safe for concurrent use. Close drains: in-flight calls
// complete, new calls fail with ErrClosed, and every goroutine the
// coordinator started has exited when Close returns.
type Coordinator struct {
	cols, rows int
	shards     []*shardState
	opts       Options
	client     *http.Client
	tr         *http.Transport
	in         *instruments
	bat        *batcher // nil when BatchMax <= 1

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// New builds a coordinator over specs, which must tile [0, rows)
// contiguously in order, each with at least one replica. cols is the
// full column dimension every x must have.
func New(cols int, specs []Spec, opts Options) (*Coordinator, error) {
	if cols <= 0 {
		return nil, fmt.Errorf("shard: cols = %d", cols)
	}
	if len(specs) == 0 {
		return nil, errors.New("shard: no shards")
	}
	opts = opts.withDefaults()
	c := &Coordinator{cols: cols, opts: opts, in: newInstruments(opts.Metrics, len(specs))}
	at := 0
	for i, sp := range specs {
		if sp.Row0 != at || sp.Row1 <= sp.Row0 {
			return nil, fmt.Errorf("shard: spec %d covers [%d, %d), want contiguous from %d", i, sp.Row0, sp.Row1, at)
		}
		if len(sp.Replicas) == 0 {
			return nil, fmt.Errorf("shard: spec %d has no replicas", i)
		}
		sh := &shardState{row0: sp.Row0, row1: sp.Row1}
		for _, rep := range sp.Replicas {
			sh.reps = append(sh.reps, &replicaState{
				rep: rep, br: newBreaker(opts.BreakerAfter, opts.BreakerCooldown),
			})
		}
		c.shards = append(c.shards, sh)
		at = sp.Row1
	}
	c.rows = at
	c.tr = opts.Transport
	if c.tr == nil {
		c.tr = &http.Transport{MaxIdleConnsPerHost: 8}
	}
	c.client = &http.Client{Transport: c.tr}
	if opts.BatchMax > 1 {
		c.bat = newBatcher(c, opts.BatchMax, opts.BatchWindow, opts.QueueDepth)
	}
	return c, nil
}

// Rows and Cols give the assembled matrix's dimensions.
func (c *Coordinator) Rows() int { return c.rows }
func (c *Coordinator) Cols() int { return c.cols }

// Metrics exposes the metric registry the coordinator instruments into.
func (c *Coordinator) Metrics() *metrics.Registry { return c.in.reg }

// MulVec scatters x to every shard and gathers y. The result is either
// complete — bit-for-bit what a single node serving the whole matrix in
// the same formats would produce, because each row's accumulation stays
// on one shard — or a typed error: a DownError naming the rows that
// failed, the propagated context error, server.ErrOverloaded when the
// batcher's queue is full, or ErrClosed. Partial results are never
// returned.
//
// With Options.BatchMax > 1 the call travels through the gather-window
// batcher: it may be coalesced with concurrent callers into one panel
// sharing a single set of wire frames. The result contract is unchanged
// — coalescing affects which frame carried the rows, never their values.
func (c *Coordinator) MulVec(ctx context.Context, x []float64) ([]float64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.wg.Add(1)
	c.mu.Unlock()
	defer c.wg.Done()

	c.in.calls.Inc()
	if len(x) != c.cols {
		c.in.failed.Inc()
		return nil, &formats.DimError{Format: "sharded", Rows: c.rows, Cols: c.cols, LenX: len(x), LenY: c.rows}
	}
	var y []float64
	var err error
	if c.bat != nil {
		y, err = c.bat.submit(ctx, x)
	} else {
		y = make([]float64, c.rows)
		err = c.scatter(ctx, [][]float64{x}, [][]float64{y})
	}
	if err != nil {
		c.in.failed.Inc()
		return nil, err
	}
	c.in.ok.Inc()
	return y, nil
}

// MulVecs scatters a caller-provided k-wide panel: every shard receives
// one SpS2 frame carrying all k vectors and streams its row block once
// for the whole panel. The result is all-or-nothing like MulVec's —
// either every returned vector is bit-for-bit the single-node product,
// or a typed error and no vectors at all. The panel bypasses the
// gather-window batcher: the caller has already done the coalescing.
func (c *Coordinator) MulVecs(ctx context.Context, xs [][]float64) ([][]float64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.wg.Add(1)
	c.mu.Unlock()
	defer c.wg.Done()

	c.in.calls.Inc()
	if len(xs) == 0 {
		c.in.failed.Inc()
		return nil, &formats.PanelError{Format: "sharded", NX: 0, NY: 0}
	}
	for _, x := range xs {
		if len(x) != c.cols {
			c.in.failed.Inc()
			return nil, &formats.DimError{Format: "sharded", Rows: c.rows, Cols: c.cols, LenX: len(x), LenY: c.rows}
		}
	}
	flat := make([]float64, len(xs)*c.rows)
	ys := make([][]float64, len(xs))
	for l := range ys {
		ys[l] = flat[l*c.rows : (l+1)*c.rows]
	}
	if err := c.scatter(ctx, xs, ys); err != nil {
		c.in.failed.Inc()
		return nil, err
	}
	c.in.ok.Inc()
	return ys, nil
}

// Update refuses point updates with ErrUpdatesUnsupported: a sharded
// matrix has no consistent single-writer path yet (see the error's
// documentation). Matching the Registry's Update shape keeps callers
// that hold either behind one interface and makes the refusal a typed,
// testable part of the API rather than a missing method.
func (c *Coordinator) Update(ctx context.Context, ups []overlay.Update[float64]) (server.UpdateResult, error) {
	return server.UpdateResult{}, ErrUpdatesUnsupported
}

// scatter runs one k-wide panel across every shard and gathers the
// partials into ys[l][row0:row1]. Each shard goroutine writes a disjoint
// row range of every output vector, so the gather is race-free without
// locks. The first shard failure wins and cancels the siblings.
func (c *Coordinator) scatter(ctx context.Context, xs, ys [][]float64) error {
	ctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	c.in.panels.Inc()
	c.in.batchK.Observe(float64(len(xs)))

	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *shardState) {
			defer wg.Done()
			flat, err := c.runShard(ctx, i, sh, xs)
			if err != nil {
				// First failure wins and cancels the siblings: their rows
				// are useless once any range is missing.
				once.Do(func() { firstErr = err; cancel() })
				return
			}
			rows := sh.row1 - sh.row0
			for l := range ys {
				copy(ys[l][sh.row0:sh.row1], flat[l*rows:(l+1)*rows])
			}
		}(i, sh)
	}
	wg.Wait()
	return firstErr
}

// Close drains the coordinator: the batcher (if any) finishes its
// in-flight panel and sheds its queue, in-flight calls and their hedge
// stragglers finish, later calls fail with ErrClosed, idle connections
// are torn down. Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	// Order matters: the batcher must drain before wg.Wait, because
	// batched callers hold the wait group while they wait for the loop's
	// reply.
	if c.bat != nil {
		c.bat.close()
	}
	c.wg.Wait()
	c.tr.CloseIdleConnections()
}

// frameBuf is a pooled, reference-counted encode buffer for scatter
// frames. The owner (runShard) holds one reference; every launched
// request goroutine holds another, and each HTTP request body holds one
// more until the transport closes it. A hedge loser can still be
// streaming the frame after its attempt has returned a winner, so the
// buffer goes back to the pool only when the last reference drops —
// a plain "repool after the retry loop" would hand a recycled buffer to
// an in-flight request.
type frameBuf struct {
	buf  []byte
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrame() *frameBuf {
	fb := framePool.Get().(*frameBuf)
	fb.refs.Store(1)
	return fb
}

func (fb *frameBuf) retain() { fb.refs.Add(1) }

func (fb *frameBuf) release() {
	if fb.refs.Add(-1) == 0 {
		framePool.Put(fb)
	}
}

// frameReader streams a pooled frame as an HTTP request body, dropping
// its buffer reference when the transport closes it (the transport
// closes every request body exactly once, success or failure).
type frameReader struct {
	bytes.Reader
	fb   *frameBuf
	once sync.Once
}

// reader takes a buffer reference and returns a body over the frame;
// the reference drops when the body is closed.
func (fb *frameBuf) reader() *frameReader {
	fb.retain()
	r := &frameReader{fb: fb}
	r.Reset(fb.buf)
	return r
}

func (r *frameReader) Close() error {
	r.once.Do(r.fb.release)
	return nil
}

// encodeFrame encodes the SpS2 scatter frame for one shard into the
// pooled buffer. With a warm buffer the encode allocates nothing.
func encodeFrame(fb *frameBuf, row0, row1 int, xs [][]float64) error {
	var err error
	fb.buf, err = server.AppendShardPanel(fb.buf[:0], row0, row1, xs)
	return err
}

// runShard drives one shard's retry loop: attempt, classify, back off,
// fail over — until success, a terminal error, or the budget runs out.
// The returned flat slice holds the k partial vectors concatenated,
// vector l at flat[l*rows : (l+1)*rows].
func (c *Coordinator) runShard(ctx context.Context, i int, sh *shardState, xs [][]float64) ([]float64, error) {
	fb := getFrame()
	defer fb.release()
	if err := encodeFrame(fb, sh.row0, sh.row1, xs); err != nil {
		return nil, err
	}
	var last error
	attempts := 0
	for attempts < c.opts.MaxAttempts {
		if err := ctx.Err(); err != nil {
			if last == nil {
				last = err
			}
			break
		}
		if attempts > 0 {
			if err := sleepCtx(ctx, c.backoff(attempts)); err != nil {
				break
			}
			// Counted after the backoff, not before: a retry whose sleep
			// was canceled never launched and must not inflate the counter.
			c.in.retries[i].Inc()
		}
		attempts++
		flat, err := c.attempt(ctx, i, sh, fb, len(xs))
		if err == nil {
			return flat, nil
		}
		last = err
		if terminal(err) {
			break
		}
	}
	return nil, &DownError{Row0: sh.row0, Row1: sh.row1, Attempts: attempts, Last: last}
}

// terminal reports an error retrying cannot fix: the remote judged the
// request itself bad (4xx). Everything else — connection failures, 5xx,
// corrupted or truncated frames, attempt timeouts — is worth another
// try while budget remains.
func terminal(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Status < 500
}

// backoff is the exponential retry delay before attempt n (n >= 1),
// jittered by up to 50% so concurrent calls do not retry in lockstep.
func (c *Coordinator) backoff(n int) time.Duration {
	d := c.opts.RetryBase << (n - 1)
	if d > c.opts.RetryMax || d <= 0 {
		d = c.opts.RetryMax
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attempt runs one (possibly hedged) try against the shard's replicas.
// The first success wins; the loser is canceled and its late result
// discarded. Breaker bookkeeping happens in the request goroutine so it
// is recorded even for losers nobody waits for. A canceled request says
// nothing about the replica's health, so it only re-arms an abandoned
// half-open probe; a terminal 4xx is the request's fault, not the
// replica's, and counts as contact with a healthy replica. The hedge
// counter increments exactly once per hedge pair — one primary plus one
// hedge — regardless of panel width or replica count, so BENCH_shard
// retry deltas stay comparable across k.
func (c *Coordinator) attempt(ctx context.Context, i int, sh *shardState, fb *frameBuf, k int) ([]float64, error) {
	actx, cancel := context.WithTimeout(ctx, c.opts.AttemptTimeout)
	defer cancel()

	type result struct {
		flat []float64
		err  error
	}
	res := make(chan result, 2) // buffered: a loser's send never blocks
	launch := func(rs *replicaState) {
		c.wg.Add(1) // Close waits for stragglers, not just MulVec bodies
		fb.retain() // the goroutine may outlive runShard's owner reference
		go func() {
			defer c.wg.Done()
			defer fb.release()
			flat, err := c.do(actx, rs.rep, sh, fb, k)
			switch {
			case err == nil:
				rs.br.success()
			case errors.Is(err, context.Canceled):
				// Abandoned, not failed — but re-arm the probe slot if
				// this request held it, or the breaker would refuse the
				// replica forever.
				rs.br.abandon()
			case terminal(err):
				// The remote judged the request itself bad; the replica
				// answered and is healthy.
				rs.br.success()
			default:
				if rs.br.failure() {
					c.in.breakers[i].Inc()
				}
			}
			res <- result{flat, err}
		}()
	}

	primary := sh.pick(nil)
	if primary == nil {
		return nil, errBreakersOpen
	}
	launch(primary)
	inflight := 1

	var hedge <-chan time.Time
	if c.opts.HedgeAfter > 0 {
		t := time.NewTimer(c.opts.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}

	var last error
	for inflight > 0 {
		select {
		case r := <-res:
			inflight--
			if r.err == nil {
				return r.flat, nil
			}
			last = r.err
		case <-hedge:
			hedge = nil
			if second := sh.pick(primary); second != nil {
				c.in.hedges[i].Inc()
				launch(second)
				inflight++
			}
		}
	}
	return nil, last
}

// do performs one HTTP request against one replica: propagate the
// remaining budget, post the SpS2 frame to the mulvecs endpoint, decode
// and validate the SpP2 partial. The returned flat slice holds the k
// partial vectors concatenated.
func (c *Coordinator) do(ctx context.Context, rep Replica, sh *shardState, fb *frameBuf, k int) ([]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+rep.Addr+"/v1/shard/"+rep.Matrix+"/mulvecs", nil)
	if err != nil {
		return nil, err
	}
	// The body streams the pooled frame; the transport's body Close drops
	// its buffer reference. GetBody re-retains so a transparent replay
	// (HTTP/2 retry, 307) keeps the buffer alive too.
	req.Body = fb.reader()
	req.ContentLength = int64(len(fb.buf))
	req.GetBody = func() (io.ReadCloser, error) { return fb.reader(), nil }
	req.Header.Set("Content-Type", server.ContentTypePanelRequest)
	if dl, ok := ctx.Deadline(); ok {
		budget := time.Until(dl)
		if budget <= 0 {
			return nil, context.DeadlineExceeded
		}
		req.Header.Set("Spmvd-Timeout", budget.String())
	}
	c.in.panelTx.Add(uint64(len(fb.buf)))
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	// Cap the buffered body at the exact partial-frame size (with a floor
	// for error JSON bodies): the decoders guard allocation against forged
	// counts, but without this a misbehaving worker could still make the
	// coordinator buffer an arbitrarily large reply before decode rejects
	// it.
	rows := sh.row1 - sh.row0
	limit := int64(server.PartialPanelLen(rows, k))
	if limit < 4096 {
		limit = 4096
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	c.in.panelRx.Add(uint64(len(data)))
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("%w: reply body exceeds %d bytes", server.ErrWireTooLarge, limit)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, remoteErr(resp.StatusCode, data)
	}
	r0, r1, gk, flat, err := server.DecodePartialPanelInto(nil, data, rows, k)
	if err != nil {
		return nil, err
	}
	if r0 != sh.row0 || r1 != sh.row1 {
		return nil, fmt.Errorf("%w: partial [%d, %d) for shard [%d, %d)",
			server.ErrWireRange, r0, r1, sh.row0, sh.row1)
	}
	if gk != k {
		return nil, fmt.Errorf("%w: partial carries %d vectors for a %d-wide panel",
			server.ErrWirePanel, gk, k)
	}
	return flat, nil
}

// remoteErr turns a worker's non-success reply into a RemoteError,
// recovering the machine-readable kind from the apiError JSON body.
func remoteErr(status int, body []byte) *RemoteError {
	var ae struct {
		Kind string `json:"kind"`
		Err  string `json:"error"`
	}
	json.Unmarshal(body, &ae)
	if ae.Kind == "" {
		ae.Kind, ae.Err = "unknown", strings.TrimSpace(string(body))
	}
	return &RemoteError{Status: status, Kind: ae.Kind, Msg: ae.Err}
}

// RegisterShards slices m along plan and uploads each non-empty slice to
// the matching worker under name, returning the Specs for New. Worker i
// receives plan[i]; empty ranges (more workers than rows) are skipped.
// ctx bounds the whole deployment — pass a deadline (or a client with a
// Timeout) so a hung worker cannot block registration indefinitely.
func RegisterShards(ctx context.Context, client *http.Client, m *mat.COO[float64], name string, workers []string, plan [][2]int) ([]Spec, error) {
	if len(plan) != len(workers) {
		return nil, fmt.Errorf("shard: %d ranges for %d workers", len(plan), len(workers))
	}
	if client == nil {
		client = http.DefaultClient
	}
	var specs []Spec
	for i, pr := range plan {
		row0, row1 := pr[0], pr[1]
		if row1 <= row0 {
			continue
		}
		var body bytes.Buffer
		if err := mat.WriteMatrixMarket(&body, SliceRows(m, row0, row1)); err != nil {
			return nil, err
		}
		url := fmt.Sprintf("http://%s/v1/shard/%s?row0=%d&row1=%d", workers[i], name, row0, row1)
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, &body)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("shard: registering [%d, %d) on %s: %w", row0, row1, workers[i], err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return nil, fmt.Errorf("shard: registering [%d, %d) on %s: %w",
				row0, row1, workers[i], remoteErr(resp.StatusCode, msg))
		}
		specs = append(specs, Spec{Row0: row0, Row1: row1, Replicas: []Replica{{Addr: workers[i], Matrix: name}}})
	}
	return specs, nil
}
