package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"smtflex/internal/cluster"
)

// newTestFleet stands up one worker daemon plus a coordinator daemon in front
// of it (and any extra worker URLs), returning the coordinator's test server.
func newTestFleet(t *testing.T, extraWorkers ...string) *httptest.Server {
	t.Helper()
	_, workerTS := newTestServer(t, Config{ClusterWorker: cluster.NewWorker(sharedSim().Study(), 0)})
	urls := append([]string{workerTS.URL}, extraWorkers...)
	coord, err := cluster.NewCoordinator(sharedSim().Study(), urls, cluster.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	_, coordTS := newTestServer(t, Config{Coordinator: coord})
	return coordTS
}

// TestClusterMetricsPromtextLint scrapes a coordinator daemon after a fleet
// sweep through the same strict lint as the solo scrape, then pins the full
// smtflexd_cluster_* series catalog — including the per-worker dispatch
// histogram and wire counters — and checks the cluster series keep their
// label keys in alphabetical order.
func TestClusterMetricsPromtextLint(t *testing.T) {
	coordTS := newTestFleet(t)
	if code, body, _ := postJSON(t, coordTS.URL+"/v1/sweep", `{"design":"4B","kind":"heterogeneous"}`); code != http.StatusOK {
		t.Fatalf("fleet sweep: code=%d body=%s", code, body)
	}
	code, body := getJSON(t, coordTS.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code=%d", code)
	}
	typed, values := lintPromText(t, body)

	for _, name := range []string{
		"smtflexd_cluster_dispatched_total",
		"smtflexd_cluster_retries_total", "smtflexd_cluster_hedges_total",
		"smtflexd_cluster_sheds_total", "smtflexd_cluster_fallbacks_total",
		"smtflexd_cluster_integrity_failures_total", "smtflexd_cluster_audits_total",
		"smtflexd_cluster_audit_divergence_total", "smtflexd_cluster_drains_total",
		"smtflexd_cluster_journal_cells", "smtflexd_cluster_journal_replayed_total",
		"smtflexd_cluster_journal_dropped_total", "smtflexd_cluster_journal_errors_total",
		"smtflexd_cluster_dispatch_seconds", "smtflexd_cluster_wire_bytes_total",
	} {
		if typed[name] == "" {
			t.Errorf("cluster metric %s missing from coordinator scrape", name)
		}
	}
	if values["smtflexd_cluster_dispatched_total"] == 0 {
		t.Error("dispatched counter zero after a fleet sweep")
	}

	// The per-worker series must have real observations: one dispatch
	// histogram with a count, and wire counters in both directions.
	var dispatchCount, rxBytes, txBytes float64
	for key, v := range values {
		switch {
		case strings.HasPrefix(key, "smtflexd_cluster_dispatch_seconds_count{"):
			dispatchCount += v
		case strings.HasPrefix(key, "smtflexd_cluster_wire_bytes_total{") && strings.Contains(key, `dir="rx"`):
			rxBytes += v
		case strings.HasPrefix(key, "smtflexd_cluster_wire_bytes_total{") && strings.Contains(key, `dir="tx"`):
			txBytes += v
		}
	}
	if dispatchCount == 0 || rxBytes == 0 || txBytes == 0 {
		t.Errorf("per-worker series empty after a fleet sweep: dispatches=%g rx=%g tx=%g", dispatchCount, rxBytes, txBytes)
	}

	// Cluster series emit their label keys in alphabetical order so scrapes
	// diff cleanly across daemons.
	for ln, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "smtflexd_cluster_") {
			continue
		}
		open := strings.IndexByte(line, '{')
		if open < 0 {
			continue
		}
		var keys []string
		for i := open + 1; i < len(line) && line[i] != '}'; {
			eq := strings.IndexByte(line[i:], '=')
			if eq < 0 {
				break
			}
			keys = append(keys, line[i:i+eq])
			i += eq + 2 // skip ="
			for i < len(line) && line[i] != '"' {
				if line[i] == '\\' {
					i++
				}
				i++
			}
			i++ // closing quote
			if i < len(line) && line[i] == ',' {
				i++
			}
		}
		if !sort.StringsAreSorted(keys) {
			t.Errorf("line %d: cluster series label keys %v not in alphabetical order: %q", ln+1, keys, line)
		}
	}
}

// TestFleetEndpointAggregatesAndDegrades exercises /debug/fleet on a
// coordinator fronting one live worker daemon and one dead address: the
// scrape must answer 200 with the dead worker degraded to an error row,
// render as text, reject unknown formats, and 404 on a solo daemon.
func TestFleetEndpointAggregatesAndDegrades(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	coordTS := newTestFleet(t, dead.URL)

	code, body := getJSON(t, coordTS.URL+"/debug/fleet")
	if code != http.StatusOK {
		t.Fatalf("/debug/fleet: code=%d body=%s", code, body)
	}
	var fr FleetResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("decode fleet response: %v", err)
	}
	if len(fr.Workers) != 2 || fr.Scraped != 1 || fr.Errors != 1 {
		t.Fatalf("fleet snapshot workers=%d scraped=%d errors=%d, want 2/1/1", len(fr.Workers), fr.Scraped, fr.Errors)
	}
	for _, row := range fr.Workers {
		if row.URL == dead.URL && row.Err == "" {
			t.Error("dead worker row carries no error")
		}
		if row.URL != dead.URL && row.Err != "" {
			t.Errorf("live worker row failed to scrape: %s", row.Err)
		}
	}
	if _, ok := fr.Totals["smtflexd_inflight"]; !ok {
		t.Errorf("fleet totals missing the live worker's series: %v", fr.Totals)
	}

	code, text := getJSON(t, coordTS.URL+"/debug/fleet?format=text")
	if code != http.StatusOK || !strings.Contains(string(text), "2 workers, 1 scraped, 1 errors") {
		t.Errorf("/debug/fleet?format=text: code=%d body=%s", code, text)
	}
	if code, body := getJSON(t, coordTS.URL+"/debug/fleet?format=bogus"); code != http.StatusBadRequest {
		t.Errorf("unknown format: code=%d body=%s, want 400", code, body)
	}

	_, soloTS := newTestServer(t, Config{})
	if code, body := getJSON(t, soloTS.URL+"/debug/fleet"); code != http.StatusNotFound {
		t.Errorf("solo /debug/fleet: code=%d body=%s, want 404", code, body)
	}
}

// TestFlightEndpointRoundTrip pins the flight surface, a view of the
// coordinator's sweep traces: after a fleet sweep the coordinator lists the
// sweep, serves its full record by ID and by a 12-character prefix, and
// 404s unknown sweeps, non-coordinator roles, and a coordinator with
// tracing off.
func TestFlightEndpointRoundTrip(t *testing.T) {
	coordTS := newTestFleet(t)
	if code, body, _ := postJSON(t, coordTS.URL+"/v1/sweep", `{"design":"4B","kind":"heterogeneous"}`); code != http.StatusOK {
		t.Fatalf("fleet sweep: code=%d body=%s", code, body)
	}

	code, body := getJSON(t, coordTS.URL+"/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight: code=%d body=%s", code, body)
	}
	var fl FlightListResponse
	if err := json.Unmarshal(body, &fl); err != nil {
		t.Fatalf("decode flight list: %v", err)
	}
	if len(fl.Sweeps) != 1 || fl.Sweeps[0].Active || fl.Sweeps[0].Completed == 0 ||
		fl.Sweeps[0].Completed != fl.Sweeps[0].Total-fl.Sweeps[0].Prefilled {
		t.Fatalf("flight list: %+v, want one completed sweep", fl.Sweeps)
	}

	id := fl.Sweeps[0].Sweep
	for _, ref := range []string{id, id[:12]} {
		code, body = getJSON(t, coordTS.URL+"/debug/flight/"+ref)
		if code != http.StatusOK {
			t.Fatalf("/debug/flight/%s: code=%d body=%s", ref, code, body)
		}
		var rec cluster.FlightRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatalf("decode flight record: %v", err)
		}
		if rec.Sweep != id || len(rec.Cells) != fl.Sweeps[0].Completed {
			t.Fatalf("flight record %s: sweep=%s cells=%d", ref, rec.Sweep, len(rec.Cells))
		}
		for _, c := range rec.Cells {
			if !c.Done || c.Worker == "" || c.Attempts == 0 {
				t.Fatalf("flight record %s: cell %+v", ref, c)
			}
		}
	}

	if code, body := getJSON(t, coordTS.URL+"/debug/flight/deadbeef0000"); code != http.StatusNotFound {
		t.Errorf("unknown sweep: code=%d body=%s, want 404", code, body)
	}
	_, soloTS := newTestServer(t, Config{})
	if code, body := getJSON(t, soloTS.URL+"/debug/flight"); code != http.StatusNotFound {
		t.Errorf("solo /debug/flight: code=%d body=%s, want 404", code, body)
	}

	dark, err := cluster.NewCoordinator(sharedSim().Study(), []string{coordTS.URL}, cluster.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	_, darkTS := newTestServer(t, Config{Coordinator: dark, TraceBuffer: -1})
	for _, path := range []string{"/debug/flight", "/debug/flight/" + id} {
		if code, body := getJSON(t, darkTS.URL+path); code != http.StatusNotFound || !strings.Contains(string(body), "tracing disabled") {
			t.Errorf("%s with tracing off: code=%d body=%s, want 404 naming tracing", path, code, body)
		}
	}
}

// TestCoordinatorSurfacesNameTheirFlags: on a solo daemon the
// coordinator-only surfaces answer 404 with a body that names the flags
// that start a coordinator, -role=coordinator and -workers.
func TestCoordinatorSurfacesNameTheirFlags(t *testing.T) {
	_, soloTS := newTestServer(t, Config{})
	for _, path := range []string{"/debug/fleet", "/debug/flight"} {
		code, body := getJSON(t, soloTS.URL+path)
		if code != http.StatusNotFound || !strings.Contains(string(body), "-role=coordinator -workers") {
			t.Errorf("solo %s: code=%d body=%s, want 404 naming -role=coordinator -workers", path, code, body)
		}
	}
}

// TestShedEchoesRequestID: a draining daemon's 503 still carries the
// caller's request ID, so a coordinator (or operator) can correlate the shed
// with the dispatch that hit it.
func TestShedEchoesRequestID(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(`{"design":"4B"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "rid-shed-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining sweep: code=%d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "rid-shed-7" {
		t.Errorf("shed response request ID = %q, want the caller's rid-shed-7", got)
	}
	if resp.Header.Get(cluster.DrainingHeader) != "1" {
		t.Error("shed response missing the draining header")
	}
}
