package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"smtflex/internal/config"
	"smtflex/internal/interval"
	"smtflex/internal/machstats"
	"smtflex/internal/obs"
	"smtflex/internal/study"
)

// The machine-stats surfaces: optional ?machstats=1 CPI-stack attachments on
// /v1/sweep and /v1/place, the GET /debug/machstats registry dump, and the
// GET /v1/sweep?stream=1 live-progress stream (Server-Sent Events) fed by
// the experiment pool's progress hook.

// wantMachStats reports whether the request asked for the CPI-stack
// attachment.
func wantMachStats(r *http.Request) bool {
	switch r.URL.Query().Get("machstats") {
	case "1", "true":
		return true
	}
	return false
}

// wireStack converts an interval CPI stack to its wire form.
func wireStack(st interval.CPIStack) []StackComponent {
	comps := st.Components()
	out := make([]StackComponent, len(comps))
	for i, c := range comps {
		out[i] = StackComponent{Component: c.Name, CPI: c.CPI}
	}
	return out
}

// sweepMachStats builds the sweep attachment from the sweep's mean stacks.
func sweepMachStats(sw *study.Sweep) *SweepMachStats {
	ms := &SweepMachStats{MeanStacks: make([][]StackComponent, study.MaxThreads)}
	for n := 0; n < study.MaxThreads; n++ {
		ms.MeanStacks[n] = wireStack(sw.MeanStack[n])
	}
	return ms
}

// placeMachStats builds the placement attachment from the evaluation's
// per-thread detail.
func placeMachStats(threads []study.MixThread) *PlaceMachStats {
	ms := &PlaceMachStats{Threads: make([]ThreadStack, len(threads))}
	for i, th := range threads {
		ms.Threads[i] = ThreadStack{
			Program:   th.Program,
			Core:      th.Core,
			IPC:       th.IPC,
			UopsPerNs: th.UopsPerNs,
			Total:     th.Stack.Total(),
			Stack:     wireStack(th.Stack),
		}
	}
	return ms
}

// handleMachStats serves the machine-counter registry: the full snapshot as
// JSON (the same schema as the CLIs' -machstats export) or the CPI-stack
// records as CSV with ?format=csv. When the registry is disarmed the
// response says so instead of serving silently-empty data.
func (s *Server) handleMachStats(w http.ResponseWriter, r *http.Request) {
	if !machstats.Enabled() {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "machine counters disabled (run smtflexd with -machstats, or enable collection in-process)"})
		return
	}
	snap := machstats.Default().Snapshot()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = snap.WriteJSON(w)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		_ = snap.WriteStacksCSV(w)
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("unknown format %q (want json or csv)", format)})
	}
}

// --- live sweep progress (SSE) ---

// sweepStreamRoute labels the stream variant in metrics and logs.
const sweepStreamRoute = "/v1/sweep/stream"

// progressEvent is the data payload of one SSE progress event.
type progressEvent struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// writeSSE emits one Server-Sent Event and flushes it to the client.
func writeSSE(w http.ResponseWriter, f http.Flusher, event string, data any) {
	b, err := json.Marshal(data)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	f.Flush()
}

// handleSweepStream serves GET /v1/sweep?stream=1: the same sweep as the
// POST endpoint, but with live progress. The response is a Server-Sent
// Events stream of "progress" events ({"done":k,"total":n} pool tasks),
// terminated by one "result" event carrying the full SweepResponse, or one
// "error" event. The sweep parameters arrive as query parameters (design,
// kind, smt, bandwidth_gbps, machstats) since a GET carries no body.
//
// The handler cannot ride the shared endpoint() wrapper — that wrapper
// serializes exactly one JSON document after the handler returns, while SSE
// interleaves writes with computation — so it performs its own admission
// acquire/release, deadline, metrics and logging. Cache hits and coalesced
// sweeps produce no progress events (nothing is computed); the result event
// still arrives.
func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := resolveRequestID(r)
	w.Header().Set(requestIDHeader, rid)

	fail := func(code int, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		writeJSON(w, code, ErrorResponse{Error: msg})
		s.met.observe(sweepStreamRoute, code, time.Since(start))
		s.log.Warn("request", "method", r.Method, "route", sweepStreamRoute, "path", r.URL.Path,
			"rid", rid, "code", code, "err", msg)
	}

	q := r.URL.Query()
	if q.Get("stream") != "1" {
		fail(http.StatusBadRequest, "GET /v1/sweep requires ?stream=1 (use POST for a plain sweep)")
		return
	}
	design := q.Get("design")
	if design == "" {
		fail(http.StatusBadRequest, "missing design")
		return
	}
	kind, err := study.ParseKind(q.Get("kind"))
	if err != nil {
		fail(http.StatusBadRequest, "%v", err)
		return
	}
	smt := true
	if raw := q.Get("smt"); raw == "0" || raw == "false" {
		smt = false
	}
	d, err := config.DesignByName(design, smt)
	if err != nil {
		fail(http.StatusBadRequest, "%v", err)
		return
	}
	if raw := q.Get("bandwidth_gbps"); raw != "" {
		var bw float64
		if _, err := fmt.Sscanf(raw, "%g", &bw); err != nil || bw <= 0 {
			fail(http.StatusBadRequest, "invalid bandwidth_gbps %q", raw)
			return
		}
		d = d.WithBandwidth(bw)
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		fail(http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	timeout, err := s.requestTimeout(r)
	if err != nil {
		fail(http.StatusBadRequest, "%v", err)
		return
	}

	rctx := obs.WithRequestID(r.Context(), rid)
	if err := s.adm.acquire(rctx); err != nil {
		code := statusClientClosed
		if err == errQueueFull {
			s.met.reject()
			w.Header().Set("Retry-After", retryAfter())
			code = http.StatusServiceUnavailable
		}
		fail(code, "admission queue full, retry later")
		return
	}
	defer s.adm.release()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ctx, cancel := context.WithTimeout(rctx, timeout)
	defer cancel()

	// The pool's progress hook runs on worker goroutines; the HTTP response
	// writer is not concurrency-safe, so events funnel through a channel the
	// handler goroutine drains. A full channel drops the oldest granularity —
	// progress is monotone, so later events carry strictly more information.
	progCh := make(chan progressEvent, 64)
	sctx := study.WithProgress(ctx, func(done, total int) {
		select {
		case progCh <- progressEvent{Done: done, Total: total}:
		default:
		}
	})
	type outcome struct {
		sw  *study.Sweep
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		sw, err := s.sweepDesign(sctx, d, kind)
		resCh <- outcome{sw, err}
	}()

	code := http.StatusOK
	for {
		select {
		case ev := <-progCh:
			writeSSE(w, flusher, "progress", ev)
		case out := <-resCh:
			// Drain progress queued behind the result so the stream never
			// ends on a stale count.
			for {
				select {
				case ev := <-progCh:
					writeSSE(w, flusher, "progress", ev)
					continue
				default:
				}
				break
			}
			if out.err != nil {
				code = statusOf(out.err)
				if kind := failureKind(out.err); kind != "" {
					s.met.failure(kind)
				}
				writeSSE(w, flusher, "error", ErrorResponse{Error: out.err.Error()})
			} else {
				resp := s.sweepResponse(d, kind, out.sw, wantMachStats(r))
				writeSSE(w, flusher, "result", resp)
			}
			dur := time.Since(start)
			s.met.observe(sweepStreamRoute, code, dur)
			s.log.Info("request", "method", r.Method, "route", sweepStreamRoute,
				"path", r.URL.Path, "rid", rid, "code", code, "dur_ms", dur.Milliseconds())
			return
		}
	}
}
