package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"smtflex/internal/obs"
)

// metrics is the server's observability state, exposed at /metrics in the
// Prometheus text format (hand-rolled — the repo takes no dependencies).
// Request counters and latency histograms are per route; gauges for queue
// depth and cache state are sampled at scrape time by the server.
type metrics struct {
	mu       sync.Mutex
	requests map[routeCode]int64
	latency  map[string]*obs.Histogram // seconds, per route
	rejected int64
	drainHit int64 // requests refused while draining
	panics   int64
	failures map[string]int64 // engine failures by kind
}

type routeCode struct {
	route string
	code  int
}

// latencyBuckets are the request latency upper bounds in seconds. Sweeps
// span milliseconds (cache hit) to minutes (cold campaign), so the buckets
// stretch wide.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30, 120}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[routeCode]int64),
		latency:  make(map[string]*obs.Histogram),
		failures: make(map[string]int64),
	}
}

// observe records one finished request.
func (m *metrics) observe(route string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[routeCode{route, code}]++
	h := m.latency[route]
	if h == nil {
		h = obs.NewHistogram(latencyBuckets)
		m.latency[route] = h
	}
	h.Observe(d.Seconds())
}

// reject records one request shed by admission control.
func (m *metrics) reject() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// drained records one request refused because the server is draining.
func (m *metrics) drained() {
	m.mu.Lock()
	m.drainHit++
	m.mu.Unlock()
}

// panicked records one handler panic contained by the recover middleware.
func (m *metrics) panicked() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// failure records one engine failure by kind (panic, injected, diverged,
// not_converged, config, trace).
func (m *metrics) failure(kind string) {
	m.mu.Lock()
	m.failures[kind]++
	m.mu.Unlock()
}

// sample is one point-in-time value sampled at scrape, with the metadata a
// strict Prometheus parser requires: every series gets a HELP/TYPE pair.
// Samples sharing a metric name (label variants) must be adjacent in the
// slice; write emits the headers once per name.
type sample struct {
	name   string
	help   string
	kind   string // "gauge" or "counter"
	labels string // rendered label set, may be empty
	value  float64
}

// engineHist is a snapshot of one histogram series for rendering: a route's
// request latency or an engine-level histogram. Label variants of one metric
// (labels non-empty, e.g. per-worker dispatch latency) must be adjacent in
// the slice; write emits the HELP/TYPE headers once per name.
type engineHist struct {
	name   string
	help   string
	labels string // rendered label set without the le pair, may be empty
	snap   obs.HistogramSnapshot
}

// histLabels merges a histogram's own label set with the le bucket label.
func histLabels(labels, le string) string {
	if labels == "" {
		return fmt.Sprintf(`{le=%q}`, le)
	}
	// le leads so the merged set stays alphabetical for the label sets we
	// emit (route=..., worker=...), keeping scrapes diffable across daemons.
	return fmt.Sprintf(`{le=%q,%s`, le, labels[1:])
}

// write renders every metric in deterministic order.
func (m *metrics) write(w io.Writer, samples []sample, hists []engineHist) {
	m.mu.Lock()
	defer m.mu.Unlock()

	keys := make([]routeCode, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	fmt.Fprintf(w, "# HELP smtflexd_requests_total Requests served, by route and status code.\n")
	fmt.Fprintf(w, "# TYPE smtflexd_requests_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(w, "smtflexd_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, m.requests[k])
	}

	fmt.Fprintf(w, "# HELP smtflexd_rejected_total Requests shed by admission control (queue full).\n")
	fmt.Fprintf(w, "# TYPE smtflexd_rejected_total counter\n")
	fmt.Fprintf(w, "smtflexd_rejected_total %d\n", m.rejected)

	fmt.Fprintf(w, "# HELP smtflexd_drained_total Requests refused while draining for shutdown.\n")
	fmt.Fprintf(w, "# TYPE smtflexd_drained_total counter\n")
	fmt.Fprintf(w, "smtflexd_drained_total %d\n", m.drainHit)

	fmt.Fprintf(w, "# HELP smtflexd_panics_total Handler panics contained by the recover middleware.\n")
	fmt.Fprintf(w, "# TYPE smtflexd_panics_total counter\n")
	fmt.Fprintf(w, "smtflexd_panics_total %d\n", m.panics)

	kinds := make([]string, 0, len(m.failures))
	for k := range m.failures {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "# HELP smtflexd_engine_failures_total Engine failures surfaced to clients, by kind.\n")
	fmt.Fprintf(w, "# TYPE smtflexd_engine_failures_total counter\n")
	for _, k := range kinds {
		fmt.Fprintf(w, "smtflexd_engine_failures_total{kind=%q} %d\n", k, m.failures[k])
	}

	routes := make([]string, 0, len(m.latency))
	for r := range m.latency {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	reqs := make([]engineHist, len(routes))
	for i, r := range routes {
		reqs[i] = engineHist{"smtflexd_request_duration_seconds", "Request latency.",
			fmt.Sprintf(`{route=%q}`, r), m.latency[r].Snapshot()}
	}

	prevHist := ""
	for _, h := range append(reqs, hists...) {
		if h.name != prevHist {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
			prevHist = h.name
		}
		for i, bound := range h.snap.Bounds {
			fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, histLabels(h.labels, fmt.Sprintf("%g", bound)), h.snap.Cumulative[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, histLabels(h.labels, "+Inf"), h.snap.Count)
		fmt.Fprintf(w, "%s_sum%s %g\n", h.name, h.labels, h.snap.Sum)
		fmt.Fprintf(w, "%s_count%s %d\n", h.name, h.labels, h.snap.Count)
	}

	prev := ""
	for _, g := range samples {
		if g.name != prev {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", g.name, g.help, g.name, g.kind)
			prev = g.name
		}
		fmt.Fprintf(w, "%s%s %g\n", g.name, g.labels, g.value)
	}
}
