package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smtflex/internal/machstats"
	"smtflex/internal/perfdiff"
)

// The perf-snapshot surfaces: GET /debug/perfsnap captures the daemon's
// current performance state as a versioned perfdiff bundle (?pprof=1 attaches
// heap + CPU profiles); GET /debug/perfsnap/ring serves the continuous
// profiler's bounded ring; and StartPerfLoops runs the optional background
// loops — periodic profile capture and the snap-on-drift watcher that
// auto-dumps a snapshot beside the journal when engine histograms shift past
// tolerance versus a committed baseline.

// perf bundles the Server's performance-observability state.
type perf struct {
	ring     *perfdiff.ProfRing
	interval time.Duration // 0 = continuous profiling off

	drift         *perfdiff.DriftWatcher
	driftInterval time.Duration
	dumpDir       string
	drifts        atomic.Int64 // smtflexd_perf_drift_total
	dumps         atomic.Int64 // drift snapshots written
	dumpErrs      atomic.Int64
}

// maxDriftDumps bounds how many drift snapshots one daemon writes: drift that
// persists re-fires every check, and the disk should hold the first captures
// (closest to the transition), not an unbounded stream of identical ones.
const maxDriftDumps = 16

// defaultDriftInterval is how often the drift watcher compares live
// histograms against the baseline.
const defaultDriftInterval = 15 * time.Second

// profileWindow picks the CPU capture length for a continuous-profiling
// interval: half the interval, capped at one second — long enough to catch
// the hot path, short enough that profiling overhead stays marginal.
func profileWindow(interval time.Duration) time.Duration {
	w := interval / 2
	if w > time.Second {
		w = time.Second
	}
	return w
}

// perfHistograms snapshots the engine histograms in canonical order.
func (s *Server) perfHistograms() []perfdiff.HistogramState {
	return []perfdiff.HistogramState{
		perfdiff.HistState(perfdiff.HistSolverIterations, s.solverIters.Snapshot()),
		perfdiff.HistState(perfdiff.HistPoolQueueSeconds, s.poolQueue.Snapshot()),
	}
}

// PerfSnapshot captures the daemon's performance state. On a coordinator the
// snapshot is fleet-wide: the merged worker scrape (the same path as
// /debug/fleet) contributes the fleet's per-route time stacks. Capture only
// reads already-collected state — it never perturbs the engine.
func (s *Server) PerfSnapshot(ctx context.Context) *perfdiff.Snapshot {
	opts := perfdiff.CaptureOpts{Role: s.role()}
	if s.col != nil {
		opts.Traces = s.col.Snapshots()
	}
	if machstats.Enabled() {
		mach := machstats.Default().Snapshot()
		opts.Mach = &mach
	}
	opts.Histograms = s.perfHistograms()
	counters := s.study().CacheCounters()
	if s.coord != nil {
		counters = append(counters, s.coord.CacheCounters()...)
	}
	if s.worker != nil {
		counters = append(counters, s.worker.CacheCounters()...)
	}
	opts.Caches = counters
	if s.coord != nil {
		fleet := s.coord.FleetSnapshot(ctx)
		opts.FleetStacks = fleet.TimeStacks
	}
	return perfdiff.Capture(opts)
}

func (s *Server) handlePerfsnap(w http.ResponseWriter, r *http.Request) {
	snap := s.PerfSnapshot(r.Context())
	if r.URL.Query().Get("pprof") == "1" {
		// Heap is instant; CPU needs a window (?profile_ms=, default 1s,
		// capped; 0 = heap only). A failed CPU capture — another profiler
		// already running — degrades to heap-only rather than failing the
		// whole snapshot.
		if hp, err := perfdiff.CaptureHeapProfile(); err == nil {
			snap.Profiles = append(snap.Profiles, hp)
		}
		ms := int64(1000)
		if raw := r.URL.Query().Get("profile_ms"); raw != "" {
			v, err := strconv.ParseInt(raw, 10, 64)
			if err != nil || v < 0 {
				writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid profile_ms " + strconv.Quote(raw)})
				return
			}
			ms = v
		}
		if ms > 30_000 {
			ms = 30_000
		}
		if ms > 0 {
			if cp, err := perfdiff.CaptureCPUProfile(time.Duration(ms) * time.Millisecond); err == nil {
				snap.Profiles = append(snap.Profiles, cp)
			} else {
				s.log.Warn("perfsnap cpu profile skipped", "err", err)
			}
		}
	}
	writeJSON(w, http.StatusOK, snap)
}

// PerfRingResponse is the /debug/perfsnap/ring body.
type PerfRingResponse struct {
	// Interval is the configured capture cadence in seconds.
	IntervalSeconds float64 `json:"interval_seconds"`
	// Captures and Skipped count capture attempts since start.
	Captures int64 `json:"captures"`
	Skipped  int64 `json:"skipped"`
	// Profiles is the ring's contents, oldest first.
	Profiles []perfdiff.Profile `json:"profiles"`
}

func (s *Server) handlePerfRing(w http.ResponseWriter, _ *http.Request) {
	if s.perf.interval <= 0 {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "continuous profiling disabled (start with -prof-interval)"})
		return
	}
	caps, skipped := s.perf.ring.Counts()
	writeJSON(w, http.StatusOK, PerfRingResponse{
		IntervalSeconds: s.perf.interval.Seconds(),
		Captures:        caps,
		Skipped:         skipped,
		Profiles:        s.perf.ring.Snapshot(),
	})
}

// StartPerfLoops launches the configured background loops: the continuous
// profiling ring (ProfInterval > 0) and the drift watcher (PerfBaseline
// set). Both stop when ctx is cancelled; wait blocks until they have
// returned, so no capture or snapshot write outlives the caller. Safe to
// call once at startup; a daemon with neither configured starts nothing.
func (s *Server) StartPerfLoops(ctx context.Context) (wait func()) {
	var wg sync.WaitGroup
	if s.perf.interval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.perf.ring.Run(ctx, s.perf.interval, profileWindow(s.perf.interval))
		}()
		s.log.Info("continuous profiling armed", "interval", s.perf.interval, "ring", perfdiff.DefaultProfRingCap)
	}
	if s.perf.drift != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.driftLoop(ctx)
		}()
		s.log.Info("perf drift watcher armed", "interval", s.perf.driftInterval, "dump_dir", s.perf.dumpDir)
	}
	return wg.Wait
}

// driftLoop periodically compares live engine histograms against the armed
// baseline. Every drifted quantile bumps smtflexd_perf_drift_total; the first
// maxDriftDumps drift events also capture a full snapshot next to the journal
// (crash-safe, like the journal's records and flight dumps) so the postmortem
// has the state from the moment of the shift, not from whenever someone noticed.
func (s *Server) driftLoop(ctx context.Context) {
	t := time.NewTicker(s.perf.driftInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			drifts := s.perf.drift.Check(s.perfHistograms())
			if len(drifts) == 0 {
				continue
			}
			s.perf.drifts.Add(int64(len(drifts)))
			s.log.Warn("perf drift vs baseline", "drifts", perfdiff.FormatDrifts(drifts))
			if s.perf.dumps.Load() >= maxDriftDumps {
				continue
			}
			snap := s.PerfSnapshot(ctx)
			path, err := snap.WriteDir(s.perf.dumpDir, "perfdrift")
			if err != nil {
				s.perf.dumpErrs.Add(1)
				s.log.Error("perf drift snapshot failed", "err", err)
				continue
			}
			s.perf.dumps.Add(1)
			s.log.Warn("perf drift snapshot written", "path", path)
		}
	}
}

// timestackQuantiles summarizes the engine histograms for /debug/timestack:
// the quantile view of the same state the snapshot carries in full.
type HistQuantiles struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func (s *Server) timestackQuantiles() []HistQuantiles {
	out := make([]HistQuantiles, 0, 2)
	for _, h := range s.perfHistograms() {
		snap := h.Snapshot()
		out = append(out, HistQuantiles{
			Name:  h.Name,
			Count: h.Count,
			P50:   snap.Quantile(0.50),
			P95:   snap.Quantile(0.95),
			P99:   snap.Quantile(0.99),
		})
	}
	return out
}
