package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smtflex/internal/config"
	"smtflex/internal/faults"
	"smtflex/internal/journal"
	"smtflex/internal/memo"
	"smtflex/internal/obs"
	"smtflex/internal/study"
	"smtflex/internal/workload"
)

// Options parameterizes a Coordinator. Zero values select defaults.
type Options struct {
	// HedgeDelay is how long a dispatch may run before a second attempt is
	// launched on a different worker (default 3s). Zero selects the default;
	// negative disables hedging.
	HedgeDelay time.Duration
	// StoreCap bounds the fleet result store in cells, LRU-evicted
	// (0 = unbounded). Assembled sweeps live in the study's sweep cache,
	// which study.Study.BoundCaches bounds.
	StoreCap int
	// Journal, when non-nil, is the write-ahead cell journal: every completed
	// cell is recorded before the sweep finishes, and a restarted coordinator
	// replays the journal into its result store so only the remainder is
	// re-dispatched. The journal must be opened under this engine's
	// fingerprint (see journal.Open).
	Journal *journal.Journal
	// AuditFraction, in (0,1], enables audit mode: that fraction of cells
	// (sampled deterministically by content address) is double-dispatched to
	// a second, independent worker and the result digests compared. Any
	// divergence fails the sweep with ErrAuditDivergence. Zero disables.
	AuditFraction float64
	// Logger receives dispatch warnings (default slog.Default()).
	Logger *slog.Logger
}

// Dispatch tuning.
const (
	slotsPerWorker   = 4                // concurrent dispatch slots per worker
	attemptTimeout   = 60 * time.Second // cap on one dispatch attempt
	shedBudget       = 8                // 503 sheds one attempt absorbs (honoring Retry-After) before trying elsewhere
	breakerThreshold = 3                // consecutive transport failures that trip a worker's breaker open
	breakerCooldown  = 15 * time.Second // how long an open breaker blocks traffic before a half-open probe
)

// dispatchBounds are the per-worker dispatch latency histogram buckets
// (seconds): wire round trips live in the low milliseconds, full cell
// evaluations in the tens of milliseconds to seconds.
var dispatchBounds = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// workerState is the coordinator's view of one worker.
type workerState struct {
	url      string
	br       *breaker     // circuit breaker: the worker's health state machine
	done     atomic.Int64 // cells this worker completed
	inflight atomic.Int64 // dispatch attempts currently on the wire

	// Wire observability: successful-dispatch latency distribution and
	// request/response byte totals, exported per worker on /metrics.
	hist    *obs.Histogram
	txBytes atomic.Int64
	rxBytes atomic.Int64

	mu      sync.Mutex
	lastErr string
}

// fail records a transport-level failure: the error is kept for the debug
// surface and the breaker accumulates it (tripping open at threshold, or
// immediately from a half-open probe).
func (w *workerState) fail(err error) {
	w.br.failure(time.Now())
	w.mu.Lock()
	w.lastErr = err.Error()
	w.mu.Unlock()
}

func (w *workerState) lastError() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastErr
}

// alive reports whether the breaker would admit traffic now — the fabric's
// liveness notion on /healthz and /debug/cluster.
func (w *workerState) alive() bool {
	return w.br.allowsTraffic(time.Now())
}

// Coordinator is the fabric's control plane: it decomposes sweeps into
// content-addressed cells, dispatches them across the worker fleet from one
// shared cell list with hedged retries, and reassembles bit-identical tables.
// It is safe for concurrent use; its sweeps live in its study's sweep cache,
// where identical concurrent sweeps coalesce onto one computation.
type Coordinator struct {
	st      *study.Study
	opts    Options
	log     *slog.Logger
	workers []*workerState

	// store is the fleet-level content-addressed result store; hits skip
	// dispatch entirely.
	store memo.Cache[string, CellResponse]

	dispatched, retries, hedges, sheds, fallbacks atomic.Int64

	// runs are the traced sweeps still computing: the in-progress half of
	// /debug/flight (see flightview.go).
	runsMu sync.Mutex
	runs   []*sweepRun

	// Integrity and durability counters.
	integrityFailures atomic.Int64 // quarantined corrupt/mismatched responses
	audits            atomic.Int64 // cells double-dispatched by audit mode
	auditMismatches   atomic.Int64 // audit digest divergences (each fails a sweep)
	drains            atomic.Int64 // dispatches rerouted off a draining worker
	journalPuts       atomic.Int64 // cells journaled
	journalErrs       atomic.Int64 // journal writes that failed (non-fatal)
	journalReplayed   int          // records replayed into the store at startup
	journalDropped    int          // records rejected at startup (corrupt/foreign)
}

// NewCoordinator builds a Coordinator over the worker base URLs
// (e.g. "http://10.0.0.2:8080").
func NewCoordinator(st *study.Study, workerURLs []string, opts Options) (*Coordinator, error) {
	if st == nil {
		return nil, errors.New("cluster: coordinator needs a study engine")
	}
	if len(workerURLs) == 0 {
		return nil, ErrNoWorkers
	}
	if opts.HedgeDelay == 0 {
		opts.HedgeDelay = 3 * time.Second
	}
	if opts.AuditFraction < 0 || opts.AuditFraction > 1 {
		return nil, fmt.Errorf("cluster: audit fraction %g outside [0,1]", opts.AuditFraction)
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	c := &Coordinator{st: st, opts: opts, log: opts.Logger}
	for _, u := range workerURLs {
		// The breaker starts closed: optimistic until a probe or dispatch
		// says otherwise.
		c.workers = append(c.workers, &workerState{
			url:  u,
			br:   newBreaker(breakerThreshold, breakerCooldown),
			hist: obs.NewHistogram(dispatchBounds),
		})
	}
	c.store.Name = "fleet"
	if opts.StoreCap > 0 {
		c.store.Bound(opts.StoreCap)
	}
	if opts.Journal != nil {
		if err := c.replayJournal(opts.Journal); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// replayJournal seeds the fleet store from the write-ahead journal: every
// record that passes both the journal's at-rest digest and the wire layer's
// canonical integrity check becomes a store entry, so the next sweep serves
// those cells without dispatching. Records failing either check are dropped
// (counted, never trusted).
func (c *Coordinator) replayJournal(j *journal.Journal) error {
	rejected := 0
	replayed, dropped, err := j.Replay(func(key string, payload []byte) {
		var resp CellResponse
		if json.Unmarshal(payload, &resp) != nil {
			rejected++
			return
		}
		if verr := resp.verifyIntegrity(key); verr != nil {
			c.log.Warn("journal replay rejected record", "key", key, "err", verr)
			rejected++
			return
		}
		c.store.Put(key, resp)
	})
	if err != nil {
		return fmt.Errorf("cluster: replaying journal: %w", err)
	}
	c.journalReplayed = replayed - rejected
	c.journalDropped = dropped + rejected
	if c.journalReplayed > 0 || c.journalDropped > 0 {
		c.log.Info("journal replayed", "dir", j.Dir(),
			"cells", c.journalReplayed, "dropped", c.journalDropped)
	}
	return nil
}

// Probe checks every worker's /healthz concurrently, updating breaker state.
// A 200 closes the worker's breaker (a restarted worker rejoins the fleet at
// the next sweep or /healthz scrape); any failure trips it open immediately —
// an out-of-band health verdict, not one dispatch loss, so it bypasses the
// consecutive-failure threshold.
func (c *Coordinator) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	for _, ws := range c.workers {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			fail := func(err error) {
				ws.br.forceOpen(time.Now())
				ws.mu.Lock()
				ws.lastErr = err.Error()
				ws.mu.Unlock()
			}
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, ws.url+"/healthz", nil)
			if err != nil {
				fail(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				fail(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ws.br.success()
			} else {
				fail(fmt.Errorf("healthz: status %d", resp.StatusCode))
			}
		}(ws)
	}
	wg.Wait()
}

// SweepDesign runs one design sweep through the study's sweep cache, which
// computes a miss through the fleet. The result is bit-for-bit identical to
// study.Study.SweepDesign on the same engine configuration: the cells are
// evaluated by the same per-mix code on the workers and reassembled by the
// same study.AssembleSweep. Identical concurrent calls coalesce; a
// context-carried progress hook (study.WithProgress) fires per completed
// cell, like the local pool's.
func (c *Coordinator) SweepDesign(ctx context.Context, d config.Design, k study.Kind) (*study.Sweep, error) {
	return c.st.SweepDesignWith(ctx, d, k, c.computeSweep)
}

// cell is one dispatchable work unit of a sweep.
type cell struct {
	n, mi int
	key   string
	d     config.Design
	mix   workload.Mix
	req   CellRequest
	// attempts numbers the cell's dispatches once they go on the wire (hedges
	// and audits included): attempt > 1 is retry/hedge traffic, and a
	// dispatch span without a number never left the coordinator.
	attempts atomic.Int64
}

// computeSweep decomposes, dispatches and reassembles one sweep.
func (c *Coordinator) computeSweep(ctx context.Context, d config.Design, k study.Kind) (_ *study.Sweep, err error) {
	prog := study.ProgressFrom(ctx)
	ctx, sp := obs.StartSpan(ctx, "cluster.sweep")
	var run *sweepRun
	defer func() { c.endSweep(sp, run, err) }()

	sweepID := memo.KeyHash(c.st.SweepKey(d, k))
	c.Probe(ctx)
	mixes, nMixes, err := c.st.SweepMixes(k)
	if err != nil {
		return nil, err
	}
	total := study.MaxThreads * nMixes
	results := make([][]study.MixResult, study.MaxThreads)
	for i := range results {
		results[i] = make([]study.MixResult, nMixes)
	}

	// Decompose into cells, serving what the fleet store already holds.
	fingerprint := c.st.Fingerprint()
	var cells []*cell
	for n := 1; n <= study.MaxThreads; n++ {
		for mi := 0; mi < nMixes; mi++ {
			mix := mixes[n][mi]
			key := memo.KeyHash(c.st.CellKey(d, k, n, mix))
			if resp, ok := c.store.Cached(key); ok {
				results[n-1][mi] = fromWire(resp)
				continue
			}
			cells = append(cells, &cell{
				n: n, mi: mi, key: key, d: d, mix: mix,
				req: CellRequest{
					Key:           key,
					Fingerprint:   fingerprint,
					Design:        d.Name,
					SMT:           d.SMTEnabled,
					BandwidthGBps: d.MemBandwidthGBps,
					Kind:          k.String(),
					N:             n,
					MixID:         mix.ID,
					Programs:      mix.Programs,
				},
			})
		}
	}
	prefilled := total - len(cells)
	run = c.startRun(ctx, sp, map[string]any{
		"design": d.Name, "kind": k.String(), "cells": total, "store_hits": prefilled, "sweep_id": sweepID,
	})
	if prog != nil && prefilled > 0 {
		prog(prefilled, total)
	}

	// Every slot of every worker claims the next undispatched cell from the
	// one shared list, so each worker takes cells as fast as it finishes
	// them and a slow or dead worker's share drains through the rest of the
	// fleet. A slot stops at the end of the list, on the sweep's first
	// failure, or when ctx is done; cells already on the wire still finish
	// and are journaled.
	var (
		next, done atomic.Int64 // next unclaimed cell index; completed cells, prefills included
		mu         sync.Mutex   // guards sweepErr
		sweepErr   error
	)
	done.Store(int64(prefilled))
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return sweepErr != nil
	}
	var wg sync.WaitGroup
	for wi := range c.workers {
		for range slotsPerWorker {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil && !failed() {
					i := int(next.Add(1)) - 1
					if i >= len(cells) {
						return
					}
					cl := cells[i]
					resp, err := c.processCell(ctx, cl, wi)
					if err != nil {
						mu.Lock()
						if sweepErr == nil {
							sweepErr = err
						}
						mu.Unlock()
						return
					}
					c.store.Put(cl.key, resp)
					c.journalCell(cl.key, resp)
					results[cl.n-1][cl.mi] = fromWire(resp) // each cell owns its slot
					if n := done.Add(1); prog != nil {
						prog(int(n), total)
					}
				}
			}()
		}
	}
	wg.Wait()
	if sweepErr != nil {
		return nil, sweepErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return study.AssembleSweep(d, k, mixes, results)
}

// journalCell write-ahead-records one completed cell. A journal write
// failure is logged and counted but does not fail the sweep: the journal is
// a recovery optimization, and losing one record only means re-evaluating
// that cell after a crash.
func (c *Coordinator) journalCell(key string, resp CellResponse) {
	if c.opts.Journal == nil {
		return
	}
	payload, err := json.Marshal(resp)
	if err == nil {
		err = c.opts.Journal.Put(key, payload)
	}
	if err != nil {
		c.journalErrs.Add(1)
		c.log.Warn("journal write failed", "key", key, "err", err)
		return
	}
	c.journalPuts.Add(1)
}

// terminalError marks failures no retry can fix: the request itself is bad
// (unknown design, fingerprint mismatch) or the engine rejected the cell.
type terminalError struct {
	status int
	msg    string
}

func (e *terminalError) Error() string {
	return fmt.Sprintf("cluster: worker rejected cell (status %d): %s", e.status, e.msg)
}

// shedError marks a worker that kept shedding (503) past the budget; the
// worker is healthy but saturated, so it is skipped for this cell without
// a breaker penalty.
type shedError struct{ worker string }

func (e *shedError) Error() string {
	return fmt.Sprintf("cluster: worker %s shedding past budget", e.worker)
}

// drainError marks a worker that answered 503 with the draining header: it
// is shutting down gracefully. The cell reroutes to another worker
// immediately — no shed budget, no breaker penalty.
type drainError struct{ worker string }

func (e *drainError) Error() string {
	return fmt.Sprintf("cluster: worker %s draining for shutdown", e.worker)
}

// integrityError marks a response that failed verification: wrong key, bad
// JSON, missing digest, or digest mismatch. The response is quarantined
// (never stored, never assembled) and the cell re-dispatched to a different
// worker; the offender takes a breaker failure.
type integrityError struct {
	worker string
	reason string
}

func (e *integrityError) Error() string {
	return fmt.Sprintf("%s from %s: %s", quarantineMsg, e.worker, e.reason)
}

// breakerDeniedError marks a dispatch blocked by an open breaker (or a
// half-open probe slot already held). Neutral: the worker was not contacted.
type breakerDeniedError struct{ worker string }

func (e *breakerDeniedError) Error() string {
	return fmt.Sprintf("cluster: worker %s breaker open", e.worker)
}

// neutralDispatchError reports whether err says nothing about the target
// worker's transport health: sheds, drains, breaker denials and terminal
// request rejections must not trip the breaker.
func neutralDispatchError(err error) bool {
	var se *shedError
	var de *drainError
	var be *breakerDeniedError
	var te *terminalError
	return errors.As(err, &se) || errors.As(err, &de) || errors.As(err, &be) || errors.As(err, &te)
}

// processCell drives one cell to completion: the claiming slot's worker
// first (the least-loaded live worker when that one's breaker is open),
// hedged against stragglers, retried on other live workers after a loss, and
// computed locally when the whole fleet is gone — a sweep never stalls on a
// dead fleet.
func (c *Coordinator) processCell(ctx context.Context, cl *cell, self int) (_ CellResponse, err error) {
	ctx, sp := obs.StartSpan(ctx, "cluster.cell")
	sp.SetAttr("key", cl.key)
	sp.SetAttr("n", cl.n)
	sp.SetAttr("mix", cl.mix.ID)
	retries := 0
	defer func() {
		sp.SetAttr("retries", retries)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}()

	tried := make(map[int]bool)
	target := self
	if !c.workers[self].alive() {
		target = c.pickLive(tried)
	}
	for {
		if err := ctx.Err(); err != nil {
			return CellResponse{}, err
		}
		if target < 0 {
			// No untried live worker remains: compute the cell locally so the
			// sweep still converges (counted, spanned, and identical by
			// construction — it is the same EvaluateMixCtx the workers run).
			c.fallbacks.Add(1)
			_, fsp := obs.StartSpan(ctx, "cluster.fallback")
			fsp.SetAttr("key", cl.key)
			r, err := c.st.EvaluateMixCtx(ctx, cl.d, cl.mix)
			fsp.End()
			if err != nil {
				return CellResponse{}, fmt.Errorf("cluster: local fallback for %s: %w", cl.mix.ID, err)
			}
			return toWire(cl.key, r), nil
		}
		tried[target] = true
		resp, winner, err := c.dispatchHedged(ctx, cl, target, tried)
		if err == nil {
			c.workers[winner].done.Add(1)
			if aerr := c.audit(ctx, cl, resp, winner); aerr != nil {
				return CellResponse{}, aerr
			}
			sp.SetAttr("worker", c.workers[winner].url)
			return resp, nil
		}
		var te *terminalError
		if errors.As(err, &te) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return CellResponse{}, err
		}
		// Transport loss, quarantine, shed budget or drain: try the next
		// live worker. A quarantined response must re-dispatch to a
		// *different* worker, which tried already guarantees: it holds every
		// worker given this cell, hedge targets included.
		c.retries.Add(1)
		retries++
		c.log.Warn("cell re-dispatch", "key", cl.key, "worker", c.workers[target].url, "err", err)
		target = c.pickLive(tried)
	}
}

// auditSampled reports whether audit mode double-checks this cell. The
// sample is a deterministic function of the content address — the cell's
// first 32 key bits against the fraction — so reruns and resumed sweeps
// audit the same cells.
func (c *Coordinator) auditSampled(key string) bool {
	frac := c.opts.AuditFraction
	if frac <= 0 || len(key) < 8 {
		return false
	}
	v, err := strconv.ParseUint(key[:8], 16, 64)
	if err != nil {
		return false
	}
	return float64(v) < frac*float64(1<<32)
}

// audit double-dispatches a sampled cell to a worker other than the one
// that answered and diffs the result digests. Agreement is silent;
// divergence is a hard sweep failure (ErrAuditDivergence) — two independent
// engines disagreeing means one of them is wrong, and no table should be
// assembled from either. With no second worker available the audit is
// skipped (logged), never faked.
func (c *Coordinator) audit(ctx context.Context, cl *cell, resp CellResponse, winner int) error {
	if !c.auditSampled(cl.key) {
		return nil
	}
	aw := c.pickLive(map[int]bool{winner: true})
	if aw < 0 {
		c.log.Warn("audit skipped: no independent worker", "key", cl.key)
		return nil
	}
	c.audits.Add(1)
	_, sp := obs.StartSpan(ctx, "cluster.audit")
	sp.SetAttr("key", cl.key)
	sp.SetAttr("worker", c.workers[aw].url)
	aresp, err := c.attempt(ctx, cl, aw)
	sp.End()
	if err != nil {
		// The audit dispatch itself failed (worker lost, shedding): the
		// primary result stands — an audit is a check, not a dependency.
		c.log.Warn("audit dispatch failed", "key", cl.key, "worker", c.workers[aw].url, "err", err)
		return nil
	}
	if aresp.Digest != resp.Digest {
		c.auditMismatches.Add(1)
		return fmt.Errorf("%w: cell %s: %s returned %s, %s returned %s",
			ErrAuditDivergence, cl.key,
			c.workers[winner].url, resp.Digest, c.workers[aw].url, aresp.Digest)
	}
	return nil
}

// pickLive returns a live worker index not in tried, or -1. It prefers the
// least-loaded (fewest inflight dispatches) so hedges and retries spread;
// liveness is the breaker's verdict, so an open breaker hides a worker until
// its cooldown half-opens it.
func (c *Coordinator) pickLive(tried map[int]bool) int {
	now := time.Now()
	best, bestLoad := -1, int64(0)
	for i, ws := range c.workers {
		if tried[i] || !ws.br.allowsTraffic(now) {
			continue
		}
		load := ws.inflight.Load()
		if best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// dispatchHedged runs one dispatch attempt against primary, launching a
// second attempt on a live worker outside tried if the first exceeds the
// hedge delay and adding it to tried; the first success wins (its worker
// index is returned) and the loser's request is cancelled. Breaker verdicts are recorded inside
// attempt, by the goroutine that owns each dispatch — a lost hedge's
// verdict still lands even though its channel send is never read.
func (c *Coordinator) dispatchHedged(ctx context.Context, cl *cell, primary int, tried map[int]bool) (CellResponse, int, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type out struct {
		resp   CellResponse
		err    error
		worker int
	}
	ch := make(chan out, 2)
	launch := func(wi int) {
		go func() {
			resp, err := c.attempt(hctx, cl, wi)
			ch <- out{resp, err, wi}
		}()
	}
	launch(primary)
	inflight := 1
	hedged := false

	var hedgeC <-chan time.Time
	if c.opts.HedgeDelay > 0 {
		timer := time.NewTimer(c.opts.HedgeDelay)
		defer timer.Stop()
		hedgeC = timer.C
	}
	var lastErr error
	for {
		select {
		case o := <-ch:
			inflight--
			if o.err == nil {
				return o.resp, o.worker, nil
			}
			lastErr = o.err
			var te *terminalError
			if errors.As(o.err, &te) {
				return CellResponse{}, -1, o.err
			}
			if inflight > 0 {
				continue // a hedge is still running; it may yet win
			}
			return CellResponse{}, -1, lastErr
		case <-hedgeC:
			hedgeC = nil
			if hedged {
				continue
			}
			if backup := c.pickLive(tried); backup >= 0 {
				tried[backup] = true
				hedged = true
				c.hedges.Add(1)
				_, hsp := obs.StartSpan(hctx, "cluster.hedge")
				hsp.SetAttr("key", cl.key)
				hsp.SetAttr("worker", c.workers[backup].url)
				hsp.End()
				launch(backup)
				inflight++
			}
		case <-hctx.Done():
			return CellResponse{}, -1, hctx.Err()
		}
	}
}

// attempt performs one HTTP dispatch of a cell to one worker, absorbing up
// to the shed budget of 503s (honoring jittered Retry-After). It owns the
// worker's breaker interaction end to end: acquire before the dispatch,
// verdict after — success closes, transport loss and quarantine count as
// failures, and neutral outcomes (shed, drain, terminal, cancelled hedge)
// release any held probe slot without a verdict.
func (c *Coordinator) attempt(ctx context.Context, cl *cell, wi int) (resp CellResponse, err error) {
	ws := c.workers[wi]
	// The dispatch span stays in ctx: post propagates it as the traceparent,
	// so the worker's subtree grafts back under exactly this span.
	ctx, sp := obs.StartSpan(ctx, "cluster.dispatch")
	sp.SetAttr("worker", ws.url)
	sp.SetAttr("key", cl.key)
	defer sp.End()
	if !ws.br.tryAcquire(time.Now()) {
		err := &breakerDeniedError{ws.url}
		sp.SetAttr("error", err.Error())
		return CellResponse{}, err
	}
	defer func() {
		switch {
		case err == nil:
			ws.br.success()
		case neutralDispatchError(err), ctx.Err() != nil:
			// Sheds, drains and terminal rejections say nothing about
			// transport health; a cancelled context (lost hedge race, sweep
			// cancel) makes any error unattributable. Free the probe slot.
			ws.br.release()
		default:
			ws.fail(err)
		}
	}()
	if err := faults.Check(faults.SiteDispatch); err != nil {
		sp.SetAttr("error", err.Error())
		return CellResponse{}, err
	}
	body, err := json.Marshal(cl.req)
	if err != nil {
		return CellResponse{}, &terminalError{0, err.Error()}
	}
	c.dispatched.Add(1)
	sp.SetAttr("attempt", cl.attempts.Add(1))
	ws.inflight.Add(1)
	defer ws.inflight.Add(-1)

	for shed := 0; ; shed++ {
		t0 := time.Now()
		actx, cancel := context.WithTimeout(ctx, attemptTimeout)
		ws.txBytes.Add(int64(len(body)))
		hresp, err := c.post(actx, ws.url+CellPath, body)
		if err != nil {
			cancel()
			sp.SetAttr("error", err.Error())
			return CellResponse{}, err
		}
		b, rerr := io.ReadAll(io.LimitReader(hresp.Body, 8<<20))
		hresp.Body.Close()
		cancel()
		rtt := time.Since(t0)
		ws.rxBytes.Add(int64(len(b)))
		if rerr != nil {
			sp.SetAttr("error", rerr.Error())
			return CellResponse{}, rerr
		}
		switch {
		case hresp.StatusCode == http.StatusOK:
			// The wire fault site corrupts the received bytes here, upstream
			// of all verification — exactly where a real network fault or
			// lying worker would land.
			b = faults.Mangle(faults.SiteWire, b)
			var cr CellResponse
			if err := json.Unmarshal(b, &cr); err != nil {
				c.integrityFailures.Add(1)
				ierr := &integrityError{ws.url, fmt.Sprintf("undecodable response: %v", err)}
				sp.SetAttr("error", ierr.Error())
				return CellResponse{}, ierr
			}
			if err := cr.verifyIntegrity(cl.key); err != nil {
				c.integrityFailures.Add(1)
				ierr := &integrityError{ws.url, err.Error()}
				sp.SetAttr("error", ierr.Error())
				return CellResponse{}, ierr
			}
			ws.hist.Observe(rtt.Seconds())
			sp.SetAttr("compute_ns", cr.ComputeNs)
			if cr.Trace != nil {
				// Stitch the worker's subtree under this dispatch span, then
				// strip it: the spans now live in the coordinator's trace, and
				// the store/journal keep only the digest-covered payload (plus
				// compute_ns, which is digest-exempt).
				sp.Graft(time.Unix(0, cr.Trace.StartUnixNs), cr.Trace.Spans, ws.url)
				cr.Trace = nil
			}
			return cr, nil
		case hresp.StatusCode == http.StatusServiceUnavailable:
			if hresp.Header.Get(DrainingHeader) != "" {
				c.drains.Add(1)
				sp.SetAttr("error", "worker draining")
				return CellResponse{}, &drainError{ws.url}
			}
			c.sheds.Add(1)
			if shed+1 >= shedBudget {
				sp.SetAttr("error", "shed budget exhausted")
				return CellResponse{}, &shedError{ws.url}
			}
			if err := sleepRetryAfter(ctx, hresp.Header.Get("Retry-After")); err != nil {
				return CellResponse{}, err
			}
		case hresp.StatusCode >= 400 && hresp.StatusCode < 500:
			var eb errorBody
			_ = json.Unmarshal(b, &eb)
			if eb.Error == "" {
				eb.Error = string(b)
			}
			sp.SetAttr("error", eb.Error)
			return CellResponse{}, &terminalError{hresp.StatusCode, eb.Error}
		default:
			err := fmt.Errorf("cluster: worker %s returned status %d", ws.url, hresp.StatusCode)
			sp.SetAttr("error", err.Error())
			return CellResponse{}, err
		}
	}
}

// post issues one JSON POST under ctx, propagating the request's
// observability identity: the sweep caller's request ID (workers reuse it in
// their logs and echo it on 503s) and the current trace context (workers
// adopt it so their spans stitch into the coordinator's trace).
func (c *Coordinator) post(ctx context.Context, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid := obs.RequestID(ctx); rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	if tid, sid := obs.Traceparent(ctx); tid != "" {
		req.Header.Set(TraceparentHeader, obs.FormatTraceparent(tid, sid))
	}
	return http.DefaultClient.Do(req)
}

// sleepRetryAfter waits the server-suggested interval (capped at 2s so a
// confused header cannot stall a sweep), or until ctx is done.
func sleepRetryAfter(ctx context.Context, header string) error {
	d := 500 * time.Millisecond
	if secs, err := strconv.Atoi(header); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WorkerStatus is one worker's row in the /debug/cluster dump.
type WorkerStatus struct {
	URL string `json:"url"`
	// Alive is the coordinator's current liveness belief: whether the
	// worker's circuit breaker would admit traffic now.
	Alive bool `json:"alive"`
	// Breaker is the breaker's position — "closed", "open" or "half-open" —
	// BreakerTrips its lifetime open transitions, and BreakerSince when it
	// entered its current position: "open since 12:03:07" explains a burst
	// of "breaker open" failed events in a sweep's flight record.
	Breaker      string    `json:"breaker"`
	BreakerTrips int64     `json:"breaker_trips"`
	BreakerSince time.Time `json:"breaker_since"`
	LastErr      string    `json:"last_err,omitempty"`
	// Done counts cells this worker completed; Inflight is current
	// on-the-wire dispatches.
	Done     int64 `json:"done"`
	Inflight int64 `json:"inflight"`
	// TxBytes/RxBytes are dispatch request/response wire totals to/from this
	// worker.
	TxBytes int64 `json:"tx_bytes"`
	RxBytes int64 `json:"rx_bytes"`
}

// State is the coordinator's assignment and counter dump for /debug/cluster.
type State struct {
	Role    string         `json:"role"`
	Workers []WorkerStatus `json:"workers"`
	// Fleet store counters: a hit is a cell served without any dispatch.
	StoreHits    int64 `json:"store_hits"`
	StoreMisses  int64 `json:"store_misses"`
	StoreEntries int   `json:"store_entries"`
	// Dispatch machinery counters. Steals always reads 0: dispatch slots
	// claim cells from one shared list, so there is no other worker's queue
	// to take a cell from. It stays because perfbench reports it as
	// cluster.steals.
	Dispatched int64 `json:"dispatched"`
	Steals     int64 `json:"steals"`
	Retries    int64 `json:"retries"`
	Hedges     int64 `json:"hedges"`
	Sheds      int64 `json:"sheds"`
	// Fallbacks counts cells computed locally because no live worker
	// remained.
	Fallbacks int64 `json:"fallbacks"`
	// Integrity and durability counters.
	IntegrityFailures int64 `json:"integrity_failures"`
	Audits            int64 `json:"audits"`
	AuditMismatches   int64 `json:"audit_mismatches"`
	Drains            int64 `json:"drains"`
	// Journal state: Journaled is the live record count (0 with no journal),
	// JournalReplayed/JournalDropped the startup replay outcome, and
	// JournalErrs failed journal writes since start.
	Journaled       int   `json:"journaled"`
	JournalReplayed int   `json:"journal_replayed"`
	JournalDropped  int   `json:"journal_dropped"`
	JournalErrs     int64 `json:"journal_errs"`
}

// State snapshots the coordinator for the debug surface.
func (c *Coordinator) State() State {
	store := c.store.Counters()
	st := State{
		Role:         "coordinator",
		StoreHits:    store.Hits,
		StoreMisses:  store.Misses,
		StoreEntries: store.Entries,
		Dispatched:   c.dispatched.Load(),
		Retries:      c.retries.Load(),
		Hedges:       c.hedges.Load(),
		Sheds:        c.sheds.Load(),
		Fallbacks:    c.fallbacks.Load(),

		IntegrityFailures: c.integrityFailures.Load(),
		Audits:            c.audits.Load(),
		AuditMismatches:   c.auditMismatches.Load(),
		Drains:            c.drains.Load(),
		JournalReplayed:   c.journalReplayed,
		JournalDropped:    c.journalDropped,
		JournalErrs:       c.journalErrs.Load(),
	}
	if c.opts.Journal != nil {
		st.Journaled = c.opts.Journal.Len()
	}
	for _, ws := range c.workers {
		brState, brTrips, brSince := ws.br.snapshot()
		st.Workers = append(st.Workers, WorkerStatus{
			URL:          ws.url,
			Alive:        ws.alive(),
			Breaker:      brState.String(),
			BreakerTrips: brTrips,
			BreakerSince: brSince,
			LastErr:      ws.lastError(),
			Done:         ws.done.Load(),
			Inflight:     ws.inflight.Load(),
			TxBytes:      ws.txBytes.Load(),
			RxBytes:      ws.rxBytes.Load(),
		})
	}
	return st
}

// Workers lists the fleet's worker URLs with current liveness and breaker
// state, for /healthz.
func (c *Coordinator) Workers() []WorkerStatus {
	out := make([]WorkerStatus, len(c.workers))
	for i, ws := range c.workers {
		brState, brTrips, brSince := ws.br.snapshot()
		out[i] = WorkerStatus{
			URL: ws.url, Alive: ws.alive(),
			Breaker: brState.String(), BreakerTrips: brTrips, BreakerSince: brSince,
			LastErr: ws.lastError(),
		}
	}
	return out
}

// DispatchStat is one worker's wire-level dispatch statistics for /metrics:
// the latency distribution of successful dispatches plus byte totals.
type DispatchStat struct {
	Worker  string
	Latency obs.HistogramSnapshot
	TxBytes int64
	RxBytes int64
}

// DispatchStats snapshots every worker's dispatch latency histogram and wire
// byte counters, in fleet order.
func (c *Coordinator) DispatchStats() []DispatchStat {
	out := make([]DispatchStat, len(c.workers))
	for i, ws := range c.workers {
		out[i] = DispatchStat{
			Worker:  ws.url,
			Latency: ws.hist.Snapshot(),
			TxBytes: ws.txBytes.Load(),
			RxBytes: ws.rxBytes.Load(),
		}
	}
	return out
}

// CacheCounters exposes the fleet store's counters for /metrics.
func (c *Coordinator) CacheCounters() []memo.Counters {
	return []memo.Counters{c.store.Counters()}
}
