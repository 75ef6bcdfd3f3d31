package server

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"smtflex/internal/machstats"
	"smtflex/internal/memo"
	"smtflex/internal/perfdiff"
)

// The perf-snapshot surface: GET /debug/perfsnap captures the daemon's
// current performance state as a versioned perfdiff bundle (?pprof=1
// attaches heap + CPU profiles).

// perfHistograms snapshots the engine histograms in canonical order.
func (s *Server) perfHistograms() []perfdiff.HistogramState {
	return []perfdiff.HistogramState{
		perfdiff.HistState(perfdiff.HistSolverIterations, s.solverIters.Snapshot()),
		perfdiff.HistState(perfdiff.HistPoolQueueSeconds, s.poolQueue.Snapshot()),
	}
}

// cacheCounters lists every memo cache the daemon reaches: the engine's
// (solo-rate, sweeps, profiles, curves), then the coordinator's fleet store
// and sweep cache, or the worker's cell content store. /metrics and
// /debug/perfsnap both read it.
func (s *Server) cacheCounters() []memo.Counters {
	counters := s.study().CacheCounters()
	if s.coord != nil {
		counters = append(counters, s.coord.CacheCounters()...)
	}
	if s.worker != nil {
		counters = append(counters, s.worker.CacheCounters()...)
	}
	return counters
}

// PerfSnapshot captures the daemon's performance state. On a coordinator the
// snapshot is fleet-wide: it scrapes every worker (the same path as
// /debug/fleet) for the fleet's merged time stacks. It never perturbs the
// engine.
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
	opts.Caches = s.cacheCounters()
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

// HistQuantiles summarizes one engine histogram for /debug/timestack: the
// quantile view of the same state the snapshot carries in full.
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
