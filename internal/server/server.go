// Package server exposes the experiment engine as a long-running HTTP/JSON
// service (the smtflexd daemon): design-sweep evaluation, single-placement
// scheduling queries, figure tables and job-stream simulation, served to
// many concurrent clients from one shared engine.
//
// The service is production-shaped rather than a thin mux:
//
//   - Admission control: at most MaxConcurrent requests execute at once and
//     at most QueueDepth more wait; everything beyond is shed immediately
//     with 503 + Retry-After instead of queuing unboundedly.
//   - Deadlines and cancellation: every request runs under a context with a
//     deadline (default or ?timeout_ms=), and the context is threaded
//     through the experiment engine's worker pool — an abandoned request
//     stops burning workers mid-sweep.
//   - Coalescing: identical in-flight sweeps collapse onto one computation
//     in the engine's singleflight cache; the shared work is cancelled only
//     when every interested request has gone.
//   - Observability: /healthz, /metrics (request counts, latency
//     histograms, queue depth, engine cache sizes and hit rates) and
//     structured request logging.
//
// Graceful shutdown is the standard net/http contract: run the Handler
// under an http.Server and call its Shutdown, which stops accepting new
// connections and drains in-flight requests.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"smtflex/internal/buildinfo"
	"smtflex/internal/cache"
	"smtflex/internal/cluster"
	"smtflex/internal/config"
	"smtflex/internal/contention"
	"smtflex/internal/core"
	"smtflex/internal/faults"
	"smtflex/internal/mem"
	"smtflex/internal/memo"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
	"smtflex/internal/study"
	"smtflex/internal/timeline"
	"smtflex/internal/trace"
	"smtflex/internal/workload"
)

// Config parameterizes a Server. The zero value of every optional field
// gets a sensible default; Sim is required.
type Config struct {
	// Sim is the shared engine every request is served from.
	Sim *core.Simulator
	// MaxConcurrent bounds simultaneously executing requests
	// (default GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for an execution slot (default 64;
	// negative means no waiting room — reject whenever all slots are busy).
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the client sets none
	// (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 10m).
	MaxTimeout time.Duration
	// Logger receives structured request logs (default slog.Default()).
	Logger *slog.Logger
	// TraceBuffer bounds the ring of completed request traces behind
	// /debug/traces (default 128; negative disables request tracing).
	TraceBuffer int
	// Coordinator, when set, routes sweep requests through the distributed
	// fabric (fan-out across a worker fleet) instead of the local engine.
	// Mutually exclusive with ClusterWorker.
	Coordinator *cluster.Coordinator
	// ClusterWorker, when set, mounts the fabric's cell-evaluation route
	// (POST /cluster/v1/cell) so this daemon serves a coordinator's
	// dispatches. Mutually exclusive with Coordinator.
	ClusterWorker *cluster.Worker
	// ProfInterval, when positive, arms the continuous profiler: a CPU
	// profile is captured at this cadence into a bounded ring served at
	// /debug/perfsnap/ring. Zero (the default) disables profiling entirely.
	ProfInterval time.Duration
	// ProfRingCap bounds the continuous profiler's ring
	// (default perfdiff.DefaultProfRingCap).
	ProfRingCap int
	// PerfBaseline, when set, arms the snap-on-drift watcher: engine
	// histograms are compared against this baseline snapshot at
	// DriftInterval, and a drift past tolerance auto-captures a perf
	// snapshot into PerfDumpDir.
	PerfBaseline *perfdiff.Snapshot
	// PerfDumpDir is where drift-triggered snapshots land (default ".";
	// smtflexd points it at the journal directory when one is configured).
	PerfDumpDir string
	// DriftInterval is the drift watcher's check cadence (default 15s).
	DriftInterval time.Duration
}

// Server handles the smtflexd API. Create with New; serve via Handler.
type Server struct {
	sim            *core.Simulator
	adm            *admission
	met            *metrics
	log            *slog.Logger
	mux            *http.ServeMux
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	figures        map[string]bool

	// coord and worker select the daemon's fabric role; both nil means solo.
	coord  *cluster.Coordinator
	worker *cluster.Worker

	// draining flips once at shutdown: every new engine-backed request is
	// answered 503 with the cluster draining header so coordinators reroute,
	// while in-flight requests run to completion.
	draining atomic.Bool

	// col buffers completed request traces for /debug/traces and
	// /debug/timestack; nil when tracing is disabled (TraceBuffer < 0).
	col *obs.Collector
	// solverIters and poolQueue receive engine-level observations (solver
	// iteration counts, pool queue waits) behind the /metrics histograms.
	solverIters *obs.Histogram
	poolQueue   *obs.Histogram

	// perf holds the performance-observability state: the continuous
	// profiling ring and the snap-on-drift watcher (see perfsnap.go).
	perf perf
}

// New builds a Server around the given engine.
func New(cfg Config) (*Server, error) {
	if cfg.Sim == nil {
		return nil, errors.New("server: Config.Sim is required")
	}
	if cfg.Coordinator != nil && cfg.ClusterWorker != nil {
		return nil, errors.New("server: Coordinator and ClusterWorker are mutually exclusive (a daemon has one fabric role)")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	} else if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{
		sim:            cfg.Sim,
		adm:            newAdmission(cfg.MaxConcurrent, cfg.QueueDepth),
		met:            newMetrics(),
		log:            cfg.Logger,
		defaultTimeout: cfg.DefaultTimeout,
		maxTimeout:     cfg.MaxTimeout,
		figures:        make(map[string]bool),
		coord:          cfg.Coordinator,
		worker:         cfg.ClusterWorker,
	}
	for _, id := range core.FigureIDs() {
		s.figures[id] = true
	}
	if cfg.TraceBuffer >= 0 {
		if cfg.TraceBuffer == 0 {
			cfg.TraceBuffer = 128
		}
		s.col = obs.NewCollector(cfg.TraceBuffer)
		obs.Enable()
	}
	// The engine histograms use the perf-snapshot layer's canonical bucket
	// bounds so live /metrics scrapes and perfdiff baselines are the same
	// distributions bucket for bucket.
	s.solverIters = obs.NewHistogram(perfdiff.SolverIterBuckets)
	s.poolQueue = obs.NewHistogram(perfdiff.QueueSecondsBuckets)
	s.study().SetEngineHistograms(s.solverIters, s.poolQueue)
	if cfg.ProfRingCap <= 0 {
		cfg.ProfRingCap = perfdiff.DefaultProfRingCap
	}
	if cfg.DriftInterval <= 0 {
		cfg.DriftInterval = defaultDriftInterval
	}
	if cfg.PerfDumpDir == "" {
		cfg.PerfDumpDir = "."
	}
	s.perf.ring = perfdiff.NewProfRing(cfg.ProfRingCap)
	s.perf.interval = cfg.ProfInterval
	s.perf.driftInterval = cfg.DriftInterval
	s.perf.dumpDir = cfg.PerfDumpDir
	if cfg.PerfBaseline != nil {
		s.perf.drift = perfdiff.NewDriftWatcher(cfg.PerfBaseline, perfdiff.DefaultDriftTolerance())
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("POST /v1/sweep", s.endpoint("/v1/sweep", s.handleSweep))
	s.mux.HandleFunc("GET /v1/sweep", s.handleSweepStream)
	s.mux.Handle("POST /v1/place", s.endpoint("/v1/place", s.handlePlace))
	s.mux.Handle("GET /v1/figures/{id}", s.endpoint("/v1/figures", s.handleFigure))
	s.mux.Handle("POST /v1/jobsim", s.endpoint("/v1/jobsim", s.handleJobsim))
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	s.mux.HandleFunc("GET /debug/timestack", s.handleTimestack)
	s.mux.HandleFunc("GET /debug/machstats", s.handleMachStats)
	s.mux.HandleFunc("GET /debug/cluster", s.handleDebugCluster)
	s.mux.HandleFunc("GET /debug/fleet", s.handleFleet)
	s.mux.HandleFunc("GET /debug/flight", s.handleFlight)
	s.mux.HandleFunc("GET /debug/flight/{sweep}", s.handleFlight)
	s.mux.HandleFunc("GET /debug/perfsnap", s.handlePerfsnap)
	s.mux.HandleFunc("GET /debug/perfsnap/ring", s.handlePerfRing)
	if s.worker != nil {
		s.mux.Handle("POST "+cluster.CellPath, s.endpoint(cluster.CellPath, s.handleCell))
	}
	return s, nil
}

// Handler returns the root handler, ready for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain puts the server into graceful-drain mode: new engine-backed
// requests (including a coordinator's cell dispatches) are answered 503
// with the cluster draining header, /healthz turns 503 "draining", and
// in-flight requests run to completion. Idempotent; there is no undo —
// draining ends with process exit.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Inflight reports requests currently executing — the quantity a draining
// daemon waits to see reach zero before exiting.
func (s *Server) Inflight() int { return s.adm.executing() }

func (s *Server) study() *study.Study { return s.sim.Study() }

// --- request plumbing ---

// httpError carries a status code chosen by a handler.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// statusClientClosed is nginx's conventional code for "client closed the
// request"; the response never reaches anyone, but the metrics and logs do.
const statusClientClosed = 499

// statusOf maps a handler error to an HTTP status, classifying the engine's
// typed errors: invalid inputs are the client's fault (400), a solve that
// could not converge is a well-formed request the engine cannot satisfy
// (422), and contained panics or injected faults are server errors (500).
func statusOf(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.code
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosed
	case errors.Is(err, config.ErrBadConfig), errors.Is(err, cache.ErrBadConfig),
		errors.Is(err, mem.ErrBadConfig), errors.Is(err, trace.ErrBadTrace),
		errors.Is(err, study.ErrBadKind), errors.Is(err, cluster.ErrKeyMismatch):
		return http.StatusBadRequest
	case errors.Is(err, contention.ErrNotConverged), errors.Is(err, contention.ErrDiverged):
		return http.StatusUnprocessableEntity
	case errors.Is(err, cluster.ErrFingerprintMismatch):
		// A coordinator from a differently configured fleet: the request can
		// never succeed here, and 409 tells it not to retry.
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// failureKind labels an engine failure for the smtflexd_engine_failures_total
// metric; empty means the error is not an engine failure (client errors,
// cancellations).
func failureKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, study.ErrWorkerPanic), errors.Is(err, memo.ErrComputePanic):
		return "panic"
	case errors.Is(err, faults.ErrInjected):
		return "injected"
	case errors.Is(err, contention.ErrDiverged):
		return "diverged"
	case errors.Is(err, contention.ErrNotConverged):
		return "not_converged"
	case errors.Is(err, config.ErrBadConfig), errors.Is(err, cache.ErrBadConfig), errors.Is(err, mem.ErrBadConfig):
		return "config"
	case errors.Is(err, trace.ErrBadTrace):
		return "trace"
	default:
		return ""
	}
}

// handlerFunc computes a JSON-marshalable response under ctx.
type handlerFunc func(ctx context.Context, r *http.Request) (any, error)

// requestIDHeader is the inbound/outbound request-identity header.
const requestIDHeader = "X-Request-ID"

// resolveRequestID accepts the client's X-Request-ID when it is sane (short,
// printable ASCII — it lands verbatim in log lines), generating one
// otherwise. Either way the response echoes it.
func resolveRequestID(r *http.Request) string {
	rid := r.Header.Get(requestIDHeader)
	if rid == "" || len(rid) > 128 {
		return obs.NewRequestID()
	}
	for i := 0; i < len(rid); i++ {
		if rid[i] < 0x20 || rid[i] > 0x7e {
			return obs.NewRequestID()
		}
	}
	return rid
}

// endpoint wraps a handler with request identity, tracing, admission
// control, the per-request deadline, metrics and logging — the shared spine
// of every engine-backed route.
func (s *Server) endpoint(route string, fn handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := resolveRequestID(r)
		w.Header().Set(requestIDHeader, rid)
		rctx := obs.WithRequestID(r.Context(), rid)
		// The root span covers the whole request; finish ends it after the
		// response is serialized, completing the trace into the ring buffer.
		// A coordinator's dispatch carries its trace identity in the
		// propagation header; adopting it makes this worker's spans children
		// of the coordinator's cluster.dispatch span once grafted home.
		var tctx context.Context
		var root *obs.Span
		if tid, sid, ok := obs.ParseTraceparent(r.Header.Get(cluster.TraceparentHeader)); ok {
			tctx, root = obs.StartRemoteTrace(rctx, s.col, route, tid, sid)
		} else {
			tctx, root = obs.StartTrace(rctx, s.col, route)
		}

		if s.draining.Load() {
			// Refuse before admission: a draining daemon finishes what it
			// has and takes nothing new. The draining header tells a fabric
			// coordinator to reroute immediately rather than burn its shed
			// budget retrying here.
			s.met.drained()
			w.Header().Set("Retry-After", retryAfter())
			w.Header().Set(cluster.DrainingHeader, "1")
			err := &httpError{http.StatusServiceUnavailable, "draining for shutdown"}
			s.finish(w, r, tctx, root, rid, route, start, 0, nil, err)
			return
		}

		timeout, err := s.requestTimeout(r)
		if err != nil {
			s.finish(w, r, tctx, root, rid, route, start, 0, nil, err)
			return
		}
		_, qs := obs.StartSpan(tctx, "queue.wait")
		err = s.adm.acquire(tctx)
		qs.End()
		if err != nil {
			if errors.Is(err, errQueueFull) {
				s.met.reject()
				w.Header().Set("Retry-After", retryAfter())
				err = &httpError{http.StatusServiceUnavailable, "admission queue full, retry later"}
			}
			s.finish(w, r, tctx, root, rid, route, start, 0, nil, err)
			return
		}
		defer s.adm.release()
		wait := time.Since(start)

		ctx, cancel := context.WithTimeout(tctx, timeout)
		defer cancel()
		res, err := s.safely(ctx, fn, r)
		s.finish(w, r, tctx, root, rid, route, start, wait, res, err)
	})
}

// safely runs a handler with the handler fault-injection site applied and
// any panic contained: the panic is logged with its stack, counted in
// smtflexd_panics_total, and turned into a plain 500 — one berserk request
// must never take the daemon down.
func (s *Server) safely(ctx context.Context, fn handlerFunc, r *http.Request) (res any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panicked()
			s.log.Error("handler panic", "panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			res, err = nil, &httpError{http.StatusInternalServerError, fmt.Sprintf("internal error: handler panicked: %v", rec)}
		}
	}()
	if err := faults.Check(faults.SiteHandler); err != nil {
		return nil, err
	}
	return fn(ctx, r)
}

// requestTimeout resolves the request deadline: ?timeout_ms= if given
// (capped at MaxTimeout), else the default.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout_ms")
	if raw == "" {
		return s.defaultTimeout, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 {
		return 0, badRequest("invalid timeout_ms %q", raw)
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.maxTimeout {
		d = s.maxTimeout
	}
	return d, nil
}

// finish serializes the response (or error) under an "http.serialize" span,
// ends the request's root span, and records metrics and the request log
// line (every line carries the request ID).
func (s *Server) finish(w http.ResponseWriter, r *http.Request, ctx context.Context, root *obs.Span, rid, route string, start time.Time, wait time.Duration, res any, err error) {
	code := http.StatusOK
	_, ser := obs.StartSpan(ctx, "http.serialize")
	if err != nil {
		code = statusOf(err)
		if kind := failureKind(err); kind != "" {
			s.met.failure(kind)
		}
		writeJSON(w, code, ErrorResponse{Error: err.Error()})
	} else {
		writeJSON(w, code, res)
	}
	ser.End()
	root.SetAttr("code", code)
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.End()
	dur := time.Since(start)
	s.met.observe(route, code, dur)
	attrs := []any{
		"method", r.Method, "route", route, "path", r.URL.Path, "rid", rid,
		"code", code, "dur_ms", dur.Milliseconds(), "wait_ms", wait.Milliseconds(),
	}
	if err != nil {
		attrs = append(attrs, "err", err.Error())
		s.log.Warn("request", attrs...)
	} else {
		s.log.Info("request", attrs...)
	}
}

// writeJSON renders v with the given status. 499s get no body write beyond
// headers in practice (the client is gone), but writing is harmless.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// decodeJSON parses a request body strictly: unknown fields are rejected so
// typos fail loudly, and bodies are capped at 1 MiB.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	return nil
}

// smtOf defaults an absent smt field to true, the paper's headline setup.
func smtOf(p *bool) bool { return p == nil || *p }

// boolGauge renders a bool as the conventional 0/1 gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{Status: "ok", Role: s.role()}
	if s.coord != nil {
		// A coordinator's health includes its view of the fleet: probe and
		// report per-worker liveness so one scrape answers "who is up".
		s.coord.Probe(r.Context())
		for _, ws := range s.coord.Workers() {
			resp.Workers = append(resp.Workers, WorkerHealth{
				URL: ws.URL, Alive: ws.Alive, Breaker: ws.Breaker, LastErr: ws.LastErr,
			})
		}
	}
	if s.draining.Load() {
		// 503 flips load balancers and coordinator probes away while
		// in-flight work finishes.
		resp.Status = "draining"
		w.Header().Set(cluster.DrainingHeader, "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	bi := buildinfo.Get()
	samples := []sample{
		{"smtflexd_build_info", "Build metadata of the running binary; the value is always 1.", "gauge",
			fmt.Sprintf(`{go_version=%q,vcs_revision=%q,version=%q}`, bi.GoVersion, bi.Revision, bi.Version), 1},
		{"smtflexd_queue_waiting", "Requests waiting for an execution slot.", "gauge", "", float64(s.adm.waiting())},
		{"smtflexd_inflight", "Requests currently executing.", "gauge", "", float64(s.adm.executing())},
		{"smtflexd_draining", "1 while the daemon is draining for shutdown, else 0.", "gauge", "", boolGauge(s.draining.Load())},
		{"smtflexd_engine_evaluations_total", "Mix evaluations performed by the experiment engine.", "counter", "", float64(s.study().Evaluations())},
		{"smtflexd_perf_drift_total", "Histogram quantiles observed past tolerance versus the armed perf baseline.", "counter", "", float64(s.perf.drifts.Load())},
		{"smtflexd_perf_drift_snapshots_total", "Perf snapshots auto-captured by the drift watcher.", "counter", "", float64(s.perf.dumps.Load())},
		{"smtflexd_perf_drift_snapshot_errors_total", "Drift snapshot writes that failed.", "counter", "", float64(s.perf.dumpErrs.Load())},
	}
	{
		caps, skipped := s.perf.ring.Counts()
		samples = append(samples,
			sample{"smtflexd_prof_captures_total", "CPU profiles captured into the continuous-profiling ring.", "counter", "", float64(caps)},
			sample{"smtflexd_prof_skipped_total", "Continuous-profiling captures skipped (profiler busy).", "counter", "", float64(skipped)})
	}
	// Per-cache series from every memo cache the engine reaches (solo-rate,
	// sweeps, profiles, curves). Label variants of one metric stay adjacent
	// so write emits each HELP/TYPE header exactly once.
	counters := s.study().CacheCounters()
	// Fabric caches ride the same per-cache series: the coordinator's fleet
	// store and sweep cache, or the worker's cell content store.
	if s.coord != nil {
		counters = append(counters, s.coord.CacheCounters()...)
	}
	if s.worker != nil {
		counters = append(counters, s.worker.CacheCounters()...)
	}
	for _, mc := range []struct {
		name, help string
		kind       string
		value      func(memo.Counters) float64
	}{
		{"smtflexd_cache_entries", "Entries resident per engine cache.", "gauge", func(c memo.Counters) float64 { return float64(c.Entries) }},
		{"smtflexd_memo_hits_total", "Cache lookups served from a completed or in-flight entry, per cache.", "counter", func(c memo.Counters) float64 { return float64(c.Hits) }},
		{"smtflexd_memo_misses_total", "Cache lookups that started a new computation, per cache.", "counter", func(c memo.Counters) float64 { return float64(c.Misses) }},
		{"smtflexd_memo_coalesced_total", "Cache lookups that joined an in-flight computation, per cache.", "counter", func(c memo.Counters) float64 { return float64(c.Coalesced) }},
	} {
		for _, c := range counters {
			samples = append(samples, sample{mc.name, mc.help, mc.kind, fmt.Sprintf(`{cache=%q}`, c.Name), mc.value(c)})
		}
	}
	for _, c := range counters {
		if c.Name == "sweeps" {
			samples = append(samples, sample{"smtflexd_coalesced_sweeps_total",
				"Sweep requests that joined another request's in-flight sweep computation.", "counter", "", float64(c.Coalesced)})
		}
	}
	if s.coord != nil {
		st := s.coord.State()
		samples = append(samples,
			sample{"smtflexd_cluster_dispatched_total", "Cell dispatch attempts sent to workers.", "counter", "", float64(st.Dispatched)},
			sample{"smtflexd_cluster_retries_total", "Cells re-dispatched after a worker loss or shed budget.", "counter", "", float64(st.Retries)},
			sample{"smtflexd_cluster_hedges_total", "Backup dispatches launched against straggling workers.", "counter", "", float64(st.Hedges)},
			sample{"smtflexd_cluster_sheds_total", "503 sheds absorbed from worker admission valves.", "counter", "", float64(st.Sheds)},
			sample{"smtflexd_cluster_fallbacks_total", "Cells computed locally because no live worker remained.", "counter", "", float64(st.Fallbacks)},
			sample{"smtflexd_cluster_integrity_failures_total", "Worker responses quarantined for failing integrity verification (bad key, undecodable, digest mismatch).", "counter", "", float64(st.IntegrityFailures)},
			sample{"smtflexd_cluster_audits_total", "Cells double-dispatched to an independent worker by audit mode.", "counter", "", float64(st.Audits)},
			sample{"smtflexd_cluster_audit_divergence_total", "Audited cells whose independent workers disagreed (each fails its sweep).", "counter", "", float64(st.AuditMismatches)},
			sample{"smtflexd_cluster_drains_total", "Dispatches rerouted off a draining worker.", "counter", "", float64(st.Drains)},
			sample{"smtflexd_cluster_journal_cells", "Cells currently recorded in the write-ahead sweep journal.", "gauge", "", float64(st.Journaled)},
			sample{"smtflexd_cluster_journal_replayed_total", "Journal records replayed into the fleet store at startup.", "counter", "", float64(st.JournalReplayed)},
			sample{"smtflexd_cluster_journal_dropped_total", "Journal records dropped as corrupt or unverifiable at startup.", "counter", "", float64(st.JournalDropped)},
			sample{"smtflexd_cluster_journal_errors_total", "Journal writes that failed (the sweep continues; the cell is simply not durable).", "counter", "", float64(st.JournalErrs)},
		)
	}
	hists := []engineHist{
		{"smtflexd_solver_iterations", "Fixed-point iterations per contention solve.", "", s.solverIters.Snapshot()},
		{"smtflexd_pool_queue_seconds", "Time evaluation tasks spend queued before a pool worker starts them.", "", s.poolQueue.Snapshot()},
	}
	if s.coord != nil {
		// Per-worker dispatch latency and wire volume: the label variants of
		// one metric stay adjacent so write emits each header once.
		const wireHelp = "Bytes moved over the dispatch wire, by direction and worker."
		for _, ds := range s.coord.DispatchStats() {
			hists = append(hists, engineHist{"smtflexd_cluster_dispatch_seconds",
				"Round-trip dispatch latency per worker, successful attempts only.",
				fmt.Sprintf(`{worker=%q}`, ds.Worker), ds.Latency})
			samples = append(samples,
				sample{"smtflexd_cluster_wire_bytes_total", wireHelp, "counter",
					fmt.Sprintf(`{dir="rx",worker=%q}`, ds.Worker), float64(ds.RxBytes)},
				sample{"smtflexd_cluster_wire_bytes_total", wireHelp, "counter",
					fmt.Sprintf(`{dir="tx",worker=%q}`, ds.Worker), float64(ds.TxBytes)})
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.write(w, samples, hists)
}

func (s *Server) handleSweep(ctx context.Context, r *http.Request) (any, error) {
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Design == "" {
		return nil, badRequest("missing design")
	}
	kind, err := study.ParseKind(req.Kind)
	if err != nil {
		return nil, err
	}
	d, err := config.DesignByName(req.Design, smtOf(req.SMT))
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if req.BandwidthGBps > 0 {
		d = d.WithBandwidth(req.BandwidthGBps)
	}
	sw, err := s.sweepDesign(ctx, d, kind)
	if err != nil {
		return nil, err
	}
	return s.sweepResponse(d, kind, sw, wantMachStats(r)), nil
}

// sweepResponse converts an engine sweep into its wire form, optionally
// attaching the CPI-stack detail. Shared by the POST endpoint and the SSE
// stream's result event.
func (s *Server) sweepResponse(d config.Design, kind study.Kind, sw *study.Sweep, withMach bool) SweepResponse {
	resp := SweepResponse{
		Design:   d.Name,
		Kind:     kind.String(),
		STP:      append([]float64(nil), sw.STP[:]...),
		ANTT:     append([]float64(nil), sw.ANTT[:]...),
		Watts:    append([]float64(nil), sw.Watts[:]...),
		MixNames: append([]string(nil), sw.MixNames...),
		ByMix:    make([][]float64, len(sw.ByMix)),
	}
	for i := range sw.ByMix {
		resp.ByMix[i] = append([]float64(nil), sw.ByMix[i][:]...)
	}
	resp.Solver = SolverDiag{
		Iterations: sw.SolverIterations,
		Residual:   sw.SolverResidual,
		Converged:  sw.SolverConverged,
	}
	if withMach {
		resp.MachStats = sweepMachStats(sw)
	}
	return resp
}

func (s *Server) handlePlace(ctx context.Context, r *http.Request) (any, error) {
	var req PlaceRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Design == "" {
		return nil, badRequest("missing design")
	}
	if len(req.Programs) == 0 || len(req.Programs) > study.MaxThreads {
		return nil, badRequest("programs must list 1..%d benchmarks, got %d", study.MaxThreads, len(req.Programs))
	}
	for _, p := range req.Programs {
		if _, err := workload.ByName(p); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	d, err := config.DesignByName(req.Design, smtOf(req.SMT))
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mix := workload.Mix{ID: "api", Programs: req.Programs}
	// The evaluation places the mix itself; its threads carry the cores.
	res, err := s.study().EvaluateMixCtx(ctx, d, mix)
	if err != nil {
		return nil, err
	}
	coreOf := make([]int, len(res.Threads))
	for i, th := range res.Threads {
		coreOf[i] = th.Core
	}
	resp := PlaceResponse{
		Design:         d.Name,
		CoreOf:         coreOf,
		STP:            res.STP,
		ANTT:           res.ANTT,
		Watts:          res.Watts,
		WattsUngated:   res.WattsUngated,
		BusUtilization: res.BusUtilization,
		Solver: SolverDiag{
			Iterations: res.Diag.Iterations,
			Residual:   res.Diag.Residual,
			Converged:  res.Diag.Converged,
		},
	}
	if wantMachStats(r) {
		resp.MachStats = placeMachStats(res.Threads)
	}
	return resp, nil
}

func (s *Server) handleFigure(ctx context.Context, r *http.Request) (any, error) {
	id := r.PathValue("id")
	if !s.figures[id] {
		return nil, &httpError{http.StatusNotFound, fmt.Sprintf("unknown figure %q", id)}
	}
	tab, err := s.sim.Figure(ctx, id)
	if err != nil {
		return nil, err
	}
	return TableResponse{Title: tab.Title, Rows: tab.Rows, Cols: tab.Cols, Cells: tab.Cells}, nil
}

// defaultJobsimDesigns mirrors the jobsim CLI's default design list.
var defaultJobsimDesigns = []string{"4B", "8m", "20s", "3B5s", "1B6m"}

func (s *Server) handleJobsim(ctx context.Context, r *http.Request) (any, error) {
	var req JobsimRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if len(req.Designs) == 0 {
		req.Designs = defaultJobsimDesigns
	}
	if req.Jobs == 0 {
		req.Jobs = 40
	}
	if req.Jobs < 1 || req.Jobs > 100_000 {
		return nil, badRequest("jobs must be 1..100000, got %d", req.Jobs)
	}
	if req.InterarrivalNs == 0 {
		req.InterarrivalNs = 1.5e6
	}
	if req.WorkUops == 0 {
		req.WorkUops = 2e7
	}
	if req.InterarrivalNs < 0 || req.WorkUops <= 0 {
		return nil, badRequest("interarrival_ns and work_uops must be positive")
	}
	if req.Seed == 0 {
		req.Seed = 2014
	}
	jobs := timeline.PoissonWorkload(req.Jobs, req.InterarrivalNs, req.WorkUops, req.Seed)
	runs, err := s.sim.JobStream(ctx, req.Designs, smtOf(req.SMT), jobs)
	if err != nil {
		var he *httpError
		if !errors.As(err, &he) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			// Unknown design names are client errors.
			return nil, badRequest("%v", err)
		}
		return nil, err
	}
	resp := JobsimResponse{Runs: make([]JobsimRun, len(runs))}
	for i, run := range runs {
		resp.Runs[i] = JobsimRun{
			Design:           run.Design,
			MakespanNs:       run.Result.MakespanNs,
			MeanTurnaroundNs: run.Result.MeanTurnaroundNs,
			MeanActive:       run.Result.MeanActive,
			EnergyJoules:     run.Result.EnergyJoules,
		}
	}
	return resp, nil
}
