// Command smtflexd serves the experiment engine as a long-running HTTP/JSON
// service: design sweeps, placement queries, figure tables and job-stream
// simulation, with admission control, per-request deadlines, request
// coalescing, Prometheus-style metrics and graceful shutdown.
//
// Usage:
//
//	smtflexd -addr :8080 -concurrency 8 -queue 64 -cache-cap 256
//
// Cluster mode shards sweeps across a fleet: start workers, then a
// coordinator pointing at them:
//
//	smtflexd -role=worker -addr :8081
//	smtflexd -role=worker -addr :8082
//	smtflexd -role=coordinator -workers http://localhost:8081,http://localhost:8082
//
// The coordinator serves the same API; /v1/sweep fans out across the fleet
// and returns tables bit-identical to a solo daemon. Its sweeps live in the
// engine's one sweep cache, bounded by -cache-cap, which /v1/figures reads
// too, so a sweep either route computed is not dispatched again. Each
// worker gets four dispatch slots that claim cells from one shared list per
// sweep, so faster workers take more cells. Workers additionally serve
// POST /cluster/v1/cell; /debug/cluster dumps cells done per worker and the
// dispatch counters. Dispatches propagate the coordinator's request ID and
// trace context, and worker spans are stitched back into one trace per
// sweep — see /debug/traces, /debug/fleet and /debug/flight below.
//
// With -journal DIR the coordinator write-ahead-journals every completed
// cell; a coordinator killed mid-sweep replays the journal on restart and
// re-dispatches only the remainder, producing byte-identical tables. With
// -audit-frac F a sampled fraction of cells is double-dispatched to
// independent workers and the result digests compared — divergence fails
// the sweep hard rather than assembling an untrustworthy table.
//
// A coordinator's flight records are read from its sweep traces: sweeps in
// progress plus every sweep still in the -trace-buf ring. With -trace-buf
// -1 there are none, so /debug/flight answers 404 and a journaled
// coordinator writes no flight-<sweep>.json beside its journal.
//
// Endpoints:
//
//	POST /v1/sweep        {"design":"4B","kind":"homogeneous"}
//	GET  /v1/sweep?stream=1&design=4B  the same sweep as Server-Sent Events: progress, then the result
//	POST /v1/place        {"design":"4B","programs":["tonto","calculix"]}
//	GET  /v1/figures/{id} e.g. /v1/figures/fig7
//	POST /v1/jobsim       {"designs":["4B","20s"],"jobs":40}
//	GET  /healthz
//	GET  /metrics
//	GET  /debug/traces            recent request traces (ring buffer)
//	GET  /debug/traces/{id}       one trace; ?format=chrome for Perfetto
//	GET  /debug/timestack         per-route wall-time breakdown; ?format=text
//	GET  /debug/machstats         simulated-hardware counters and CPI stacks; ?format=csv
//	GET  /debug/cluster           fabric role and dispatch counters
//	GET  /debug/fleet             coordinator: merged worker scrape; ?format=text
//	GET  /debug/flight            coordinator: cell lifecycles of the traced sweeps
//	GET  /debug/flight/{sweep}    one flight record (>=8-char prefixes resolve)
//	GET  /debug/perfsnap          versioned perf snapshot for perfdiff; ?pprof=1 attaches profiles
//
// Two /debug/perfsnap captures diff offline with cmd/perfdiff.
//
// With -debug-addr, a second loopback listener serves every /debug/ route
// above plus Go's pprof profiles under /debug/pprof/. Every request carries
// an X-Request-ID (client-supplied or generated) echoed in the response and
// attached to each log line and trace.
//
// SIGINT/SIGTERM begins a graceful drain: in-flight requests finish (up to
// -drain) while new work is refused with 503 and the X-Smtflexd-Draining
// header, so fabric coordinators reroute instead of hedging into a dying
// worker; /healthz turns 503 "draining" so load balancers steer away.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"smtflex/internal/buildinfo"
	"smtflex/internal/cluster"
	"smtflex/internal/core"
	"smtflex/internal/faults"
	"smtflex/internal/journal"
	"smtflex/internal/machstats"
	"smtflex/internal/server"
)

// clusterPeers validates the fabric flags eagerly and returns the parsed
// worker URLs (nil for non-coordinator roles). Every failure names the flag,
// the offending value and what would be valid.
func clusterPeers(role, workers string) ([]string, error) {
	switch role {
	case "solo", "coordinator", "worker":
	default:
		return nil, fmt.Errorf("invalid -role %q (valid roles: solo, coordinator, worker)", role)
	}
	if role != "coordinator" {
		if workers != "" {
			return nil, fmt.Errorf("-workers only applies to -role=coordinator (got -role=%s)", role)
		}
		return nil, nil
	}
	if strings.TrimSpace(workers) == "" {
		return nil, errors.New("-role=coordinator requires -workers, e.g. -workers http://host1:8080,http://host2:8080")
	}
	var peers []string
	seen := make(map[string]bool)
	for _, raw := range strings.Split(workers, ",") {
		w := strings.TrimSpace(raw)
		if w == "" {
			return nil, fmt.Errorf("-workers has an empty entry in %q", workers)
		}
		u, err := url.Parse(w)
		if err != nil {
			return nil, fmt.Errorf("invalid worker URL %q in -workers: %v", w, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("invalid worker URL %q in -workers: need an absolute http(s) URL like http://host:8080", w)
		}
		w = strings.TrimRight(w, "/")
		if seen[w] {
			return nil, fmt.Errorf("duplicate worker URL %q in -workers", w)
		}
		seen[w] = true
		peers = append(peers, w)
	}
	return peers, nil
}

// durabilityFlags validates the coordinator durability flags eagerly, in the
// same spirit as clusterPeers: fail fast with an actionable message instead
// of surfacing mid-sweep.
func durabilityFlags(role, journalDir string, auditFrac float64) error {
	if journalDir != "" && role != "coordinator" {
		return fmt.Errorf("-journal only applies to -role=coordinator (got -role=%s)", role)
	}
	if auditFrac != 0 && role != "coordinator" {
		return fmt.Errorf("-audit-frac only applies to -role=coordinator (got -role=%s)", role)
	}
	if auditFrac < 0 || auditFrac > 1 {
		return fmt.Errorf("-audit-frac %g outside [0,1]", auditFrac)
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	concurrency := flag.Int("concurrency", runtime.GOMAXPROCS(0), "max concurrently executing requests")
	queue := flag.Int("queue", 64, "max requests waiting for an execution slot; beyond this, shed with 503")
	deadline := flag.Duration("deadline", 60*time.Second, "default per-request deadline")
	maxDeadline := flag.Duration("max-deadline", 10*time.Minute, "cap on client-requested ?timeout_ms= deadlines")
	drain := flag.Duration("drain", 2*time.Minute, "how long graceful shutdown waits for in-flight requests")
	uops := flag.Uint64("uops", 200_000, "cycle-engine µops per profiling run")
	mixes := flag.Int("mixes", 12, "random heterogeneous mixes per thread count")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers for the experiment engine (1 = serial)")
	cacheCap := flag.Int("cache-cap", 512, "max cached sweeps before LRU eviction (0 = unbounded)")
	logJSON := flag.Bool("log-json", false, "log in JSON instead of text")
	faultSpec := flag.String("faults", "", "DEV ONLY: arm fault injection, e.g. 'solver=error,profiler=latency:50ms,handler=panic:3'")
	debugAddr := flag.String("debug-addr", "", "serve pprof and every /debug/ route on this extra address (e.g. 127.0.0.1:6060); keep it loopback-only")
	traceBuf := flag.Int("trace-buf", 128, "completed request traces kept for /debug/traces and /debug/flight (negative disables tracing)")
	machStats := flag.Bool("machstats", true, "collect simulated-hardware counters and CPI stacks, served at /debug/machstats")
	role := flag.String("role", "solo", "fabric role: solo, coordinator (shard sweeps across -workers) or worker (serve cell dispatches)")
	workerList := flag.String("workers", "", "comma-separated worker base URLs for -role=coordinator, e.g. http://host1:8080,http://host2:8080")
	cellCap := flag.Int("cell-cache-cap", 65536, "max cached sweep cells in the fabric result store before LRU eviction (0 = unbounded)")
	journalDir := flag.String("journal", "", "coordinator only: write-ahead journal directory for completed sweep cells; a restarted coordinator replays it and re-dispatches only the remainder")
	auditFrac := flag.Float64("audit-frac", 0, "coordinator only: fraction of cells in [0,1] double-dispatched to independent workers and digest-compared; divergence fails the sweep")
	showVersion := flag.Bool("version", false, "print version information and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("smtflexd", buildinfo.Get())
		return
	}

	// Validate the fabric flags before building anything: a typo'd role or a
	// malformed worker URL must fail fast with an actionable message, not
	// surface as dispatch errors after minutes of engine profiling.
	peers, err := clusterPeers(*role, *workerList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtflexd: %v\n", err)
		os.Exit(2)
	}
	if err := durabilityFlags(*role, *journalDir, *auditFrac); err != nil {
		fmt.Fprintf(os.Stderr, "smtflexd: %v\n", err)
		os.Exit(2)
	}

	if *machStats {
		machstats.Enable()
	}

	if *faultSpec != "" {
		if err := faults.ParseSpec(*faultSpec); err != nil {
			fmt.Fprintf(os.Stderr, "smtflexd: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "smtflexd: WARNING: fault injection armed (-faults %q); never use in production\n", *faultSpec)
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	sim := core.NewSimulator(
		core.WithUopCount(*uops),
		core.WithMixesPerCount(*mixes),
		core.WithParallelism(*workers),
		core.WithCacheCap(*cacheCap),
	)
	queueDepth := *queue
	if queueDepth == 0 {
		queueDepth = -1 // flag 0 means "no waiting room", not the default
	}
	cfg := server.Config{
		Sim:            sim,
		MaxConcurrent:  *concurrency,
		QueueDepth:     queueDepth,
		DefaultTimeout: *deadline,
		MaxTimeout:     *maxDeadline,
		Logger:         logger,
		TraceBuffer:    *traceBuf,
	}
	switch *role {
	case "coordinator":
		copts := cluster.Options{
			Logger:        logger,
			StoreCap:      *cellCap,
			AuditFraction: *auditFrac,
		}
		if *journalDir != "" {
			jnl, n, err := journal.Open(*journalDir, sim.Study().Fingerprint())
			if err != nil {
				fmt.Fprintf(os.Stderr, "smtflexd: %v\n", err)
				os.Exit(2)
			}
			copts.Journal = jnl
			logger.Info("cell journal open", "dir", *journalDir, "records", n)
		}
		coord, err := cluster.NewCoordinator(sim.Study(), peers, copts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smtflexd: %v\n", err)
			os.Exit(2)
		}
		cfg.Coordinator = coord
		logger.Info("fabric coordinator", "workers", len(peers), "audit_frac", *auditFrac)
	case "worker":
		cfg.ClusterWorker = cluster.NewWorker(sim.Study(), *cellCap)
		logger.Info("fabric worker, serving " + cluster.CellPath)
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtflexd: %v\n", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		dbgSrv := &http.Server{
			Addr:              *debugAddr,
			Handler:           srv.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		// The debug listener is best-effort: it must never take the daemon
		// down, so its errors are logged rather than fatal.
		go func() {
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("debug listener (pprof and every /debug/ route)", "addr", *debugAddr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("smtflexd listening", "addr", *addr, "concurrency", *concurrency, "queue", *queue, "build", buildinfo.Get().String())

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "smtflexd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down, draining in-flight requests", "drain", *drain, "inflight", srv.Inflight())
	// Flip to draining before closing the listener: while in-flight work
	// finishes, new engine requests — including a coordinator's cell
	// dispatches to a dying worker — get 503 with the draining header, so
	// fabric peers reroute immediately instead of hedging into this process.
	srv.BeginDrain()
	drainBy := time.Now().Add(*drain)
	for srv.Inflight() > 0 && time.Now().Before(drainBy) {
		time.Sleep(50 * time.Millisecond)
	}
	shutdownCtx, cancel := context.WithDeadline(context.Background(), drainBy)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "smtflexd: shutdown: %v\n", err)
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "smtflexd: %v\n", err)
		os.Exit(1)
	}
	logger.Info("smtflexd stopped")
}
