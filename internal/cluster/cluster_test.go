package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smtflex/internal/config"
	"smtflex/internal/core"
	"smtflex/internal/memo"
	"smtflex/internal/obs"
	"smtflex/internal/study"
	"smtflex/internal/workload"
)

// The equivalence tests' whole point: a sweep through the fleet must be
// float-for-float identical to the single-process engine, at any fleet size
// and through chaos. All engines here are constructed identically so the
// comparison is meaningful.
func testSimOpts() []core.Option {
	return []core.Option{core.WithUopCount(60_000), core.WithMixesPerCount(2)}
}

var (
	simOnce sync.Once
	sim     *core.Simulator
)

// sharedSim is the one engine behind every test — profiling a fresh engine
// is expensive under -race, and sharing one keeps fingerprints aligned.
func sharedSim() *core.Simulator {
	simOnce.Do(func() { sim = core.NewSimulator(testSimOpts()...) })
	return sim
}

var (
	localOnce  sync.Once
	localBytes []byte
	localErr   error
)

// localSweepJSON is the single-process golden table the fleet must match.
func localSweepJSON(t *testing.T) []byte {
	t.Helper()
	localOnce.Do(func() {
		sw, err := sharedSim().Study().SweepDesign(context.Background(), testDesign(), study.Heterogeneous)
		if err != nil {
			localErr = err
			return
		}
		localBytes, localErr = json.Marshal(sw)
	})
	if localErr != nil {
		t.Fatalf("local sweep: %v", localErr)
	}
	return localBytes
}

func testDesign() config.Design {
	d, err := config.DesignByName("4B", true)
	if err != nil {
		panic(err) // test setup; design table is static
	}
	return d
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newWorkerServer stands up one fabric worker over httptest with the same
// minimal HTTP shape the daemon's worker role exposes: CellPath plus
// /healthz, including remote-trace adoption and the response observability
// envelope. An optional wrap intercepts requests for chaos injection.
func newWorkerServer(t *testing.T, wrap func(next http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	wk := NewWorker(sharedSim().Study(), 0)
	col := obs.NewCollector(8)
	mux := http.NewServeMux()
	mux.HandleFunc(CellPath, func(rw http.ResponseWriter, r *http.Request) {
		// Mirror the daemon's worker role: adopt the coordinator's propagated
		// trace context so the evaluation's spans ride home in the response
		// and graft under the dispatch span that carried the cell.
		ctx := r.Context()
		var root *obs.Span
		if tid, sid, ok := obs.ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
			ctx, root = obs.StartRemoteTrace(ctx, col, CellPath, tid, sid)
		}
		defer root.End()
		var req CellRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			rw.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(rw).Encode(errorBody{err.Error()}) //nolint:errcheck
			return
		}
		t0 := time.Now()
		resp, err := wk.Evaluate(ctx, req)
		if err != nil {
			code := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrFingerprintMismatch):
				code = http.StatusConflict
			case errors.Is(err, ErrKeyMismatch):
				code = http.StatusBadRequest
			}
			rw.WriteHeader(code)
			json.NewEncoder(rw).Encode(errorBody{err.Error()}) //nolint:errcheck
			return
		}
		AttachTrace(ctx, &resp, time.Since(t0).Nanoseconds())
		json.NewEncoder(rw).Encode(resp) //nolint:errcheck
	})
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

func testOptions() Options {
	return Options{Logger: quietLogger(), HedgeDelay: -1}
}

// newTestCoordinator builds a coordinator on a study of its own over the
// shared profiles: the shared study's sweep cache holds localSweepJSON's
// sweep, which a coordinator on it would answer without dispatching.
func newTestCoordinator(t *testing.T, urls []string, opts Options) *Coordinator {
	t.Helper()
	st := study.New(sharedSim().Source())
	st.MixesPerCount = sharedSim().Study().MixesPerCount
	c, err := NewCoordinator(st, urls, opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return c
}

func fleetSweepJSON(t *testing.T, c *Coordinator) []byte {
	t.Helper()
	sw, err := c.SweepDesign(context.Background(), testDesign(), study.Heterogeneous)
	if err != nil {
		t.Fatalf("fleet SweepDesign: %v", err)
	}
	b, err := json.Marshal(sw)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestSweepEquivalenceAcrossFleetSizes is the contract test: the same sweep
// through 1, 2 and 4 workers is byte-identical to the single-process table.
func TestSweepEquivalenceAcrossFleetSizes(t *testing.T) {
	want := localSweepJSON(t)
	for _, nWorkers := range []int{1, 2, 4} {
		var urls []string
		for i := 0; i < nWorkers; i++ {
			urls = append(urls, newWorkerServer(t, nil).URL)
		}
		c := newTestCoordinator(t, urls, testOptions())
		got := fleetSweepJSON(t, c)
		if string(got) != string(want) {
			t.Errorf("fleet of %d: sweep differs from single-process table", nWorkers)
		}
		st := c.State()
		if st.Dispatched == 0 {
			t.Errorf("fleet of %d: no cells dispatched", nWorkers)
		}
		if st.Fallbacks != 0 {
			t.Errorf("fleet of %d: unexpected local fallbacks: %d", nWorkers, st.Fallbacks)
		}
	}
}

// TestChaosWorkerLossConverges kills one of two workers mid-sweep (its
// connection aborts after a few cells) and asserts the sweep still converges
// byte-identical — the dead worker's cells drain through the survivor.
func TestChaosWorkerLossConverges(t *testing.T) {
	want := localSweepJSON(t)
	var served atomic.Int64
	dying := newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, CellPath) && served.Add(1) > 3 {
				panic(http.ErrAbortHandler) // simulated process death: connection drops
			}
			next.ServeHTTP(rw, r)
		})
	})
	healthy := newWorkerServer(t, nil)
	c := newTestCoordinator(t, []string{dying.URL, healthy.URL}, testOptions())
	got := fleetSweepJSON(t, c)
	if string(got) != string(want) {
		t.Fatal("sweep after mid-sweep worker loss differs from single-process table")
	}
	st := c.State()
	if st.Retries == 0 {
		t.Error("expected re-dispatches after worker loss")
	}
	var deadSeen bool
	for _, w := range st.Workers {
		if w.URL == dying.URL && !w.Alive {
			deadSeen = true
		}
	}
	if !deadSeen {
		t.Error("dying worker not marked dead in coordinator state")
	}
}

// TestShedsAreRetriedNotFatal fronts a worker with an admission valve that
// 503s the first few cells; the coordinator must honor Retry-After and
// still produce the identical table.
func TestShedsAreRetriedNotFatal(t *testing.T) {
	want := localSweepJSON(t)
	var sheds atomic.Int64
	shedding := newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, CellPath) && sheds.Add(1) <= 2 {
				rw.Header().Set("Retry-After", "1")
				rw.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(rw, r)
		})
	})
	c := newTestCoordinator(t, []string{shedding.URL}, testOptions())
	got := fleetSweepJSON(t, c)
	if string(got) != string(want) {
		t.Fatal("sweep through shedding worker differs from single-process table")
	}
	if c.State().Sheds == 0 {
		t.Error("expected shed counter to advance")
	}
}

// TestAllWorkersDeadFallsBackLocally points the coordinator at a closed
// server: every dispatch fails, and the coordinator must compute the whole
// sweep locally — still byte-identical.
func TestAllWorkersDeadFallsBackLocally(t *testing.T) {
	want := localSweepJSON(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // nothing is listening; dispatches get transport errors
	c := newTestCoordinator(t, []string{dead.URL}, testOptions())
	got := fleetSweepJSON(t, c)
	if string(got) != string(want) {
		t.Fatal("local-fallback sweep differs from single-process table")
	}
	st := c.State()
	if st.Fallbacks == 0 {
		t.Error("expected local fallbacks with a dead fleet")
	}
}

// TestFleetStoreServesRepeatCells re-runs the same decomposition against the
// coordinator's content-addressed store: every cell must hit, with zero
// dispatches beyond the first pass.
func TestFleetStoreServesRepeatCells(t *testing.T) {
	want := localSweepJSON(t)
	ws := newWorkerServer(t, nil)
	c := newTestCoordinator(t, []string{ws.URL}, testOptions())
	if got := fleetSweepJSON(t, c); string(got) != string(want) {
		t.Fatal("first pass differs from single-process table")
	}
	dispatchedAfterFirst := c.State().Dispatched
	// Bypass the sweep-level cache to force a fresh decomposition; every
	// cell must now be served by the fleet store.
	sw, err := c.computeSweep(context.Background(), testDesign(), study.Heterogeneous)
	if err != nil {
		t.Fatalf("second pass: %v", err)
	}
	b, _ := json.Marshal(sw)
	if string(b) != string(want) {
		t.Fatal("store-served sweep differs from single-process table")
	}
	st := c.State()
	if st.Dispatched != dispatchedAfterFirst {
		t.Errorf("store-served pass dispatched %d cells, want 0", st.Dispatched-dispatchedAfterFirst)
	}
	if st.StoreHits == 0 {
		t.Error("expected fleet store hits on the second pass")
	}
	counters := c.CacheCounters()
	if len(counters) == 0 || counters[0].Name != "fleet" || counters[0].Hits == 0 {
		t.Errorf("fleet cache counters not surfaced: %+v", counters)
	}
}

// TestWorkerRejectsFingerprintMismatch pins the terminal-failure contract:
// cells from a differently configured fleet must be refused, not computed.
func TestWorkerRejectsFingerprintMismatch(t *testing.T) {
	wk := NewWorker(sharedSim().Study(), 0)
	req := CellRequest{
		Fingerprint: "uops=1|mixes=1|seed=1|model={}",
		Design:      "4B", SMT: true, MixID: "m", Programs: []string{"mcf"},
	}
	_, err := wk.Evaluate(context.Background(), req)
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("err = %v, want ErrFingerprintMismatch", err)
	}
}

// TestCoordinatorTreatsRejectionAsTerminal: a 409 (fingerprint mismatch) or
// 400 (say, a key that does not address its cell) from a worker must fail
// the sweep immediately — mixing tables across mismatched engines or cells
// is the one thing the fabric must never do, and there is no point retrying.
func TestCoordinatorTreatsRejectionAsTerminal(t *testing.T) {
	for _, code := range []int{http.StatusConflict, http.StatusBadRequest} {
		rejecting := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, CellPath) {
				rw.WriteHeader(code)
				json.NewEncoder(rw).Encode(errorBody{http.StatusText(code)}) //nolint:errcheck
				return
			}
			rw.WriteHeader(http.StatusOK)
		}))
		defer rejecting.Close()
		c := newTestCoordinator(t, []string{rejecting.URL}, testOptions())
		_, err := c.SweepDesign(context.Background(), testDesign(), study.Heterogeneous)
		if err == nil {
			t.Fatalf("sweep through a worker answering %d succeeded, want terminal error", code)
		}
		if !strings.Contains(err.Error(), "rejected") {
			t.Errorf("status %d: err = %v, want worker-rejection error", code, err)
		}
		if st := c.State(); st.Retries != 0 || st.Fallbacks != 0 {
			t.Errorf("status %d: retries=%d fallbacks=%d, want none", code, st.Retries, st.Fallbacks)
		}
	}
}

// TestHedgeFiresOnStraggler: the primary hangs, the hedge delay elapses, and
// the backup worker completes the cell.
func TestHedgeFiresOnStraggler(t *testing.T) {
	want := localSweepJSON(t)
	release := make(chan struct{})
	var stalled sync.Once
	straggler := newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, CellPath) {
				var wasFirst bool
				stalled.Do(func() { wasFirst = true })
				if wasFirst {
					select { // hold the first cell until the sweep is over
					case <-release:
					case <-r.Context().Done():
					}
					panic(http.ErrAbortHandler)
				}
			}
			next.ServeHTTP(rw, r)
		})
	})
	defer close(release)
	healthy := newWorkerServer(t, nil)
	opts := testOptions()
	opts.HedgeDelay = 50 * time.Millisecond
	c := newTestCoordinator(t, []string{straggler.URL, healthy.URL}, opts)
	got := fleetSweepJSON(t, c)
	if string(got) != string(want) {
		t.Fatal("sweep with straggling worker differs from single-process table")
	}
	if c.State().Hedges == 0 {
		t.Error("expected at least one hedged dispatch")
	}
}

// TestNewCoordinatorValidation pins constructor errors.
func TestNewCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(sharedSim().Study(), nil, Options{}); !errors.Is(err, ErrNoWorkers) {
		t.Errorf("empty worker list: err = %v, want ErrNoWorkers", err)
	}
	if _, err := NewCoordinator(nil, []string{"http://x"}, Options{}); err == nil {
		t.Error("nil study accepted")
	}
}

// TestSlowWorkerShareDrainsThroughFleet: every dispatch slot claims the
// next cell from one shared list, so a worker that takes 20 ms longer per
// cell simply completes fewer cells. The table stays byte-identical, and
// nothing is retried, hedged or computed locally.
func TestSlowWorkerShareDrainsThroughFleet(t *testing.T) {
	want := localSweepJSON(t)
	slow := newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, CellPath) {
				time.Sleep(20 * time.Millisecond)
			}
			next.ServeHTTP(rw, r)
		})
	})
	fast := newWorkerServer(t, nil)
	c := newTestCoordinator(t, []string{slow.URL, fast.URL}, testOptions())
	if got := fleetSweepJSON(t, c); string(got) != string(want) {
		t.Fatal("sweep with a slow worker differs from single-process table")
	}
	st := c.State()
	if st.Retries != 0 || st.Hedges != 0 || st.Fallbacks != 0 {
		t.Errorf("retries=%d hedges=%d fallbacks=%d, want none", st.Retries, st.Hedges, st.Fallbacks)
	}
	if slowDone, fastDone := st.Workers[0].Done, st.Workers[1].Done; fastDone <= slowDone {
		t.Errorf("fast worker completed %d cells, slow worker %d: want the fast one ahead", fastDone, slowDone)
	}
}

// cellFor builds the cell the coordinator dispatches for mix on testDesign.
func cellFor(k study.Kind, mix workload.Mix) *cell {
	st, d, n := sharedSim().Study(), testDesign(), len(mix.Programs)
	key := memo.KeyHash(st.CellKey(d, k, n, mix))
	return &cell{n: n, key: key, d: d, mix: mix, req: CellRequest{
		Key: key, Fingerprint: st.Fingerprint(),
		Design: d.Name, SMT: d.SMTEnabled, BandwidthGBps: d.MemBandwidthGBps,
		Kind: k.String(), N: n, MixID: mix.ID, Programs: mix.Programs,
	}}
}

// TestWorkerRejectsKeyMismatch: a worker must not cache under a key the
// client chose. A tonto cell sent under the key of an mcf cell the worker
// already holds is refused, and tonto's own request still gets tonto.
func TestWorkerRejectsKeyMismatch(t *testing.T) {
	ctx := context.Background()
	wk := NewWorker(sharedSim().Study(), 0)
	mcf := cellFor(study.Homogeneous, workload.Mix{ID: "hom-mcf-1", Programs: []string{"mcf"}}).req
	tonto := cellFor(study.Homogeneous, workload.Mix{ID: "hom-tonto-1", Programs: []string{"tonto"}}).req
	if _, err := wk.Evaluate(ctx, mcf); err != nil {
		t.Fatalf("mcf cell: %v", err)
	}
	forged := tonto
	forged.Key = mcf.Key
	if resp, err := wk.Evaluate(ctx, forged); !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("tonto cell under mcf's key: err = %v (threads %+v), want ErrKeyMismatch", err, resp.Threads)
	}
	resp, err := wk.Evaluate(ctx, tonto)
	if err != nil {
		t.Fatalf("tonto cell: %v", err)
	}
	if len(resp.Threads) != 1 || resp.Threads[0].Program != "tonto" {
		t.Fatalf("tonto cell answered with threads %+v", resp.Threads)
	}
}

// TestHedgeTargetCountsAsTried: a hedge's worker has been given the cell, so
// after its response is quarantined and the primary is lost, the retry must
// go to the one worker that has not seen the cell rather than back to the
// hedge's.
func TestHedgeTargetCountsAsTried(t *testing.T) {
	localSweepJSON(t) // profiles measured before any timing matters
	primary := newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, CellPath) {
				time.Sleep(150 * time.Millisecond)
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(rw, r)
		})
	})
	corrupting := newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, CellPath) {
				next.ServeHTTP(rw, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var resp CellResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Errorf("corrupting worker: %v", err)
				return
			}
			// Change the payload, keep the digest: a mismatch on receipt.
			resp.STP++
			json.NewEncoder(rw).Encode(resp) //nolint:errcheck
		})
	})
	healthy := newWorkerServer(t, nil)
	opts := testOptions()
	opts.HedgeDelay = 20 * time.Millisecond
	c := newTestCoordinator(t, []string{primary.URL, corrupting.URL, healthy.URL}, opts)
	cl := cellFor(study.Heterogeneous, workload.Mix{ID: "het-mcf-tonto", Programs: []string{"mcf", "tonto"}})
	resp, err := c.processCell(context.Background(), cl, 0)
	if err != nil {
		t.Fatalf("processCell: %v", err)
	}
	if err := resp.verifyIntegrity(cl.key); err != nil {
		t.Fatalf("completed cell: %v", err)
	}
	st := c.State()
	if st.IntegrityFailures != 1 || st.Retries != 1 || st.Dispatched != 3 {
		t.Errorf("integrity_failures=%d retries=%d dispatched=%d, want 1, 1 and 3",
			st.IntegrityFailures, st.Retries, st.Dispatched)
	}
	if done := st.Workers[2].Done; done != 1 {
		t.Errorf("third worker completed %d cells, want 1", done)
	}
}
