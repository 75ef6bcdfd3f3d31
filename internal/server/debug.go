package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"

	"smtflex/internal/obs"
)

// The debug surfaces: the request-trace ring buffer as JSON or Chrome
// trace-event files, the aggregated time-stack report, and Go's pprof
// profiles. The main listener serves every /debug/ route but pprof (they are
// cheap and read-only); DebugHandler serves the same routes plus pprof for
// the opt-in -debug-addr listener, which should never be public.

// TracesResponse lists the buffered traces, newest first.
type TracesResponse struct {
	Traces []obs.TraceMeta `json:"traces"`
}

// TimestackResponse carries the per-route time stacks plus the engine
// histograms' quantile summaries (solver iterations, pool queue waits).
type TimestackResponse struct {
	Stacks     []obs.TimeStack `json:"stacks"`
	Histograms []HistQuantiles `json:"histograms"`
}

func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	if s.col == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "tracing disabled (TraceBuffer < 0)"})
		return
	}
	traces := s.col.Traces()
	resp := TracesResponse{Traces: make([]obs.TraceMeta, len(traces))}
	for i, t := range traces {
		resp.Traces[i] = t.Meta()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if s.col == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "tracing disabled (TraceBuffer < 0)"})
		return
	}
	id := r.PathValue("id")
	t, ok := s.col.Find(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no buffered trace %q (the ring keeps the most recent traces only)", id)})
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, t.Snapshot())
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".trace.json"))
		_ = obs.WriteChrome(w, t.Snapshot())
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("unknown format %q (want json or chrome)", format)})
	}
}

func (s *Server) handleTimestack(w http.ResponseWriter, r *http.Request) {
	if s.col == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "tracing disabled (TraceBuffer < 0)"})
		return
	}
	stacks := obs.TimeStacks(s.col.Snapshots())
	quants := s.timestackQuantiles()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, TimestackResponse{Stacks: stacks, Histograms: quants})
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, obs.RenderTimeStacks(stacks))
		for _, q := range quants {
			fmt.Fprintf(w, "%-22s n=%-8d p50=%-12.6g p95=%-12.6g p99=%.6g\n",
				q.Name, q.Count, q.P50, q.P95, q.P99)
		}
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("unknown format %q (want json or text)", format)})
	}
}

// DebugHandler serves net/http/pprof under /debug/pprof/ and hands every
// other /debug/ path to the main route table, so the two listeners serve
// the same debug routes. It is meant for a separate loopback listener
// (smtflexd -debug-addr), never the public one — pprof's CPU profile
// endpoint can hold a goroutine for tens of seconds.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// The more specific /debug/pprof/ patterns win over /debug/.
	mux.Handle("/debug/", s.mux)
	return mux
}
