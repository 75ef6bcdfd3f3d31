package server

import (
	"fmt"
	"net/http"

	"smtflex/internal/cluster"
	"smtflex/internal/obs"
)

// The coordinator-only fleet observability surfaces: GET /debug/fleet merges
// every live worker's /metrics, /debug/timestack and /debug/machstats into
// one snapshot, and GET /debug/flight renders recent distributed sweeps'
// per-cell lifecycles from their stitched traces.

// FleetResponse is the /debug/fleet body: the merged worker scrape plus the
// coordinator's own fleet-category time stacks (where distributed sweep wall
// time went: queue, dispatch wire, remote compute, hedges, retries,
// reassembly).
type FleetResponse struct {
	cluster.FleetSnapshot
	CoordinatorStacks []obs.TimeStack `json:"coordinator_stacks,omitempty"`
}

// FlightListResponse lists the flight records' sweeps, active first.
type FlightListResponse struct {
	Sweeps []cluster.FlightMeta `json:"sweeps"`
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "fleet aggregation is a coordinator surface (start with -cluster-workers)"})
		return
	}
	snap := s.coord.FleetSnapshot(r.Context())
	var coordStacks []obs.TimeStack
	if s.col != nil {
		coordStacks = obs.FleetTimeStacks(s.col.Snapshots())
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, FleetResponse{FleetSnapshot: snap, CoordinatorStacks: coordStacks})
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, snap.RenderText())
		if len(coordStacks) > 0 {
			fmt.Fprint(w, "\ncoordinator fleet time stacks (per route):\n")
			fmt.Fprint(w, obs.RenderTimeStacksWith(coordStacks, obs.FleetCategories))
		}
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("unknown format %q (want json or text)", format)})
	}
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "flight records are a coordinator surface (start with -cluster-workers)"})
		return
	}
	if s.col == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "tracing disabled (TraceBuffer < 0): flight records are read from sweep traces"})
		return
	}
	recs := s.coord.Flights(s.col.Snapshots())
	if sweep := r.PathValue("sweep"); sweep != "" {
		rec, ok := cluster.FindFlight(recs, sweep)
		if !ok {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no flight record for sweep %q (records last as long as their traces in the -trace-buf ring; prefixes of at least 8 characters resolve)", sweep)})
			return
		}
		writeJSON(w, http.StatusOK, rec)
		return
	}
	resp := FlightListResponse{Sweeps: make([]cluster.FlightMeta, len(recs))}
	for i, rec := range recs {
		resp.Sweeps[i] = rec.FlightMeta
	}
	writeJSON(w, http.StatusOK, resp)
}
