package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"smtflex/internal/core"
	"smtflex/internal/obs"
)

// syncBuffer is a goroutine-safe log sink: the handler goroutine writes the
// request log line after the response is already on the wire, so the test
// must be able to poll without racing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	logs := &syncBuffer{}
	_, ts := newTestServer(t, Config{Logger: slog.New(slog.NewTextHandler(logs, nil))})

	// A sane inbound X-Request-ID is echoed verbatim and lands in the log.
	req, err := http.NewRequest("POST", ts.URL+"/v1/sweep", strings.NewReader(`{"design":"4B"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHeader, "client-rid-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(requestIDHeader); got != "client-rid-1" {
		t.Fatalf("echoed request ID %q, want client-rid-1", got)
	}
	waitFor(t, "rid in request log", func() bool { return strings.Contains(logs.String(), "rid=client-rid-1") })

	// No inbound ID: the server mints one and still echoes it.
	code, _, hdr := postJSON(t, ts.URL+"/v1/sweep", `{"design":"4B"}`)
	if code != http.StatusOK {
		t.Fatalf("sweep: code=%d", code)
	}
	if rid := hdr.Get(requestIDHeader); !strings.HasPrefix(rid, "r-") {
		t.Fatalf("generated request ID %q, want r- prefix", rid)
	}

	// An oversized inbound ID (it would bloat every log line) is replaced,
	// not echoed. Control characters are likewise rejected by
	// resolveRequestID, but Go's client refuses to even send those.
	req2, err := http.NewRequest("POST", ts.URL+"/v1/sweep", strings.NewReader(`{"design":"4B"}`))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set(requestIDHeader, strings.Repeat("x", 200))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(requestIDHeader); !strings.HasPrefix(got, "r-") {
		t.Fatalf("hostile request ID echoed back: %q", got)
	}
}

func TestResolveRequestID(t *testing.T) {
	mk := func(rid string) *http.Request {
		r, err := http.NewRequest("POST", "/v1/sweep", nil)
		if err != nil {
			t.Fatal(err)
		}
		if rid != "" {
			r.Header.Set(requestIDHeader, rid)
		}
		return r
	}
	if got := resolveRequestID(mk("fine-id_123")); got != "fine-id_123" {
		t.Fatalf("sane ID rewritten to %q", got)
	}
	for name, rid := range map[string]string{
		"empty":    "",
		"too long": strings.Repeat("x", 129),
		"control":  "evil\x1b[2Jrid",
		"newline":  "a\nb",
		"high bit": "caf\xe9",
	} {
		if got := resolveRequestID(mk(rid)); !strings.HasPrefix(got, "r-") {
			t.Errorf("%s ID %q accepted as %q, want generated r-", name, rid, got)
		}
	}
}

// postTraced POSTs body to path with request ID rid and fails on a non-200.
func postTraced(t *testing.T, base, path, rid, body string) {
	t.Helper()
	req, err := http.NewRequest("POST", base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(requestIDHeader, rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: code=%d", path, resp.StatusCode)
	}
}

// waitForTrace polls /debug/traces until the trace tagged with request ID
// rid is buffered, and fetches its span tree. The root span ends after the
// response body is written, so a client can hold its response before the
// trace reaches the ring.
func waitForTrace(t *testing.T, base, rid string) (obs.TraceMeta, obs.TraceJSON) {
	t.Helper()
	var meta *obs.TraceMeta
	for deadline := time.Now().Add(5 * time.Second); meta == nil; {
		code, body := getJSON(t, base+"/debug/traces")
		if code != http.StatusOK {
			t.Fatalf("traces: code=%d body=%s", code, body)
		}
		var list TracesResponse
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		for i := range list.Traces {
			if list.Traces[i].RequestID == rid {
				meta = &list.Traces[i]
				break
			}
		}
		if meta == nil {
			if time.Now().After(deadline) {
				t.Fatalf("trace %s not in buffer: %+v", rid, list.Traces)
			}
			time.Sleep(time.Millisecond)
		}
	}
	code, body := getJSON(t, base+"/debug/traces/"+meta.ID)
	if code != http.StatusOK {
		t.Fatalf("trace by id: code=%d body=%s", code, body)
	}
	var tr obs.TraceJSON
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	return *meta, tr
}

func TestDebugTracesRoundTrip(t *testing.T) {
	// A simulator of its own, so the sweep misses the cache and its trace
	// holds a memo.get span; the numbers do not matter here, so it runs at
	// a small fidelity.
	_, ts := newTestServer(t, Config{Sim: core.NewSimulator(core.WithUopCount(5_000), core.WithMixesPerCount(1))})
	postTraced(t, ts.URL, "/v1/sweep", "trace-me", `{"design":"8m"}`)

	// List: the sweep's trace is buffered with its request ID. Fetch by ID:
	// the full span tree, rooted at the route span.
	meta, tr := waitForTrace(t, ts.URL, "trace-me")
	if meta.Name != "/v1/sweep" || meta.Spans == 0 || meta.DurNs <= 0 {
		t.Fatalf("trace meta: %+v", meta)
	}
	if tr.ID != meta.ID || len(tr.Spans) != meta.Spans {
		t.Fatalf("trace json %s/%d spans, want %s/%d", tr.ID, len(tr.Spans), meta.ID, meta.Spans)
	}
	names := map[string]bool{}
	for _, s := range tr.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"/v1/sweep", "queue.wait", "memo.get", "http.serialize"} {
		if !names[want] {
			t.Errorf("trace missing %q span (have %v)", want, names)
		}
	}

	// Chrome export: valid trace-event JSON with one event per span.
	code, body := getJSON(t, ts.URL+"/debug/traces/"+meta.ID+"?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome export: code=%d", code)
	}
	var cf obs.ChromeFile
	if err := json.Unmarshal(body, &cf); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	if len(cf.TraceEvents) != len(tr.Spans) {
		t.Fatalf("chrome export has %d events for %d spans", len(cf.TraceEvents), len(tr.Spans))
	}

	// Error paths: unknown ID and unknown format.
	if code, _ := getJSON(t, ts.URL+"/debug/traces/t-nope"); code != http.StatusNotFound {
		t.Fatalf("unknown trace id: code=%d", code)
	}
	if code, _ := getJSON(t, ts.URL+"/debug/traces/"+meta.ID+"?format=svg"); code != http.StatusBadRequest {
		t.Fatalf("unknown format: code=%d", code)
	}
}

// TestPlaceTraceHasOnePlacement holds /v1/place to one placement per
// request: the evaluation places the mix, and the handler reads the cores
// back from its threads instead of placing again.
func TestPlaceTraceHasOnePlacement(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postTraced(t, ts.URL, "/v1/place", "place-once", `{"design":"3B5s","programs":["mcf","tonto","gcc"]}`)
	_, tr := waitForTrace(t, ts.URL, "place-once")
	places := 0
	for _, sp := range tr.Spans {
		if sp.Name == "sched.place" {
			places++
		}
	}
	if places != 1 {
		t.Fatalf("/v1/place trace holds %d sched.place spans, want 1", places)
	}
}

func TestTimestackEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"4B"}`); code != http.StatusOK {
		t.Fatalf("sweep: code=%d", code)
	}
	code, body := getJSON(t, ts.URL+"/debug/timestack")
	if code != http.StatusOK {
		t.Fatalf("timestack: code=%d", code)
	}
	var stacks TimestackResponse
	if err := json.Unmarshal(body, &stacks); err != nil {
		t.Fatal(err)
	}
	var sweep *obs.TimeStack
	for i := range stacks.Stacks {
		if stacks.Stacks[i].Name == "/v1/sweep" {
			sweep = &stacks.Stacks[i]
		}
	}
	if sweep == nil {
		t.Fatalf("no /v1/sweep group in %+v", stacks.Stacks)
	}
	if sweep.Traces == 0 || sweep.WallNs <= 0 {
		t.Fatalf("sweep stack: %+v", sweep)
	}
	var pct float64
	for _, p := range sweep.Percent {
		pct += p
	}
	if pct < 99.9 || pct > 100.1 {
		t.Fatalf("sweep stack percentages sum to %g", pct)
	}

	code, body = getJSON(t, ts.URL+"/debug/timestack?format=text")
	if code != http.StatusOK || !strings.Contains(string(body), "group") || !strings.Contains(string(body), "/v1/sweep") {
		t.Fatalf("text timestack: code=%d body=%s", code, body)
	}
	if code, _ := getJSON(t, ts.URL+"/debug/timestack?format=xml"); code != http.StatusBadRequest {
		t.Fatalf("unknown format: code=%d", code)
	}
}

func TestTracingDisabledDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceBuffer: -1})
	for _, path := range []string{"/debug/traces", "/debug/traces/t-x", "/debug/timestack"} {
		if code, _ := getJSON(t, ts.URL+path); code != http.StatusNotFound {
			t.Fatalf("GET %s with tracing disabled: code=%d, want 404", path, code)
		}
	}
}

// TestDebugHandlerServesMainDebugRoutes: the -debug-addr listener answers
// every GET /debug/ route of the main listener with the same status, and
// adds pprof, which the main listener does not serve.
func TestDebugHandlerServesMainDebugRoutes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dbg := httptest.NewServer(s.DebugHandler())
	t.Cleanup(dbg.Close)
	paths := debugRoutePaths(t)
	if len(paths) == 0 {
		t.Fatal("found no GET /debug/ route in the package source")
	}
	for _, path := range paths {
		main, _ := getJSON(t, ts.URL+path)
		debug, _ := getJSON(t, dbg.URL+path)
		if main != debug {
			t.Errorf("GET %s: main listener %d, debug listener %d", path, main, debug)
		}
	}
	if code, _ := getJSON(t, dbg.URL+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("GET /debug/pprof/ on the debug listener: %d, want 200", code)
	}
	if code, _ := getJSON(t, ts.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/ on the main listener: %d, want 404", code)
	}
}

// debugRoutePaths lists the GET /debug/ route patterns in the package's
// non-test source as request paths, each wildcard filled with "none".
func debugRoutePaths(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	route := regexp.MustCompile(`"GET (/debug/[^"]*)"`)
	wildcard := regexp.MustCompile(`\{[^}]*\}`)
	seen := make(map[string]bool)
	var paths []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range route.FindAllSubmatch(src, -1) {
			if p := wildcard.ReplaceAllString(string(m[1]), "none"); !seen[p] {
				seen[p] = true
				paths = append(paths, p)
			}
		}
	}
	return paths
}

// TestSweepTraceDecomposition is the acceptance bar for span coverage: on a
// cold sweep, the root span's direct children (queue wait, the engine
// computation, serialization) must account for at least 95% of the request's
// wall time — nothing substantial happens outside a span.
func TestSweepTraceDecomposition(t *testing.T) {
	// A fresh small-fidelity engine makes the sweep cold and long enough that
	// constant handler glue (JSON decode, header work) is way under 5%.
	sim := core.NewSimulator(core.WithUopCount(20_000), core.WithMixesPerCount(2))
	s, ts := newTestServer(t, Config{Sim: sim})
	if code, _, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"2B4m"}`); code != http.StatusOK {
		t.Fatalf("sweep: code=%d", code)
	}
	var tr obs.TraceJSON
	for _, cand := range s.col.Traces() {
		if cand.Name == "/v1/sweep" {
			tr = cand.Snapshot()
			break
		}
	}
	if tr.ID == "" {
		t.Fatal("no sweep trace buffered")
	}
	var rootID string
	for _, sp := range tr.Spans {
		if sp.Parent == "" {
			rootID = sp.ID
		}
	}
	var childNs int64
	for _, sp := range tr.Spans {
		if sp.Parent == rootID {
			childNs += sp.DurNs
		}
	}
	if tr.DurNs <= 0 {
		t.Fatalf("root duration %d", tr.DurNs)
	}
	if cover := float64(childNs) / float64(tr.DurNs); cover < 0.95 {
		t.Fatalf("direct children cover %.1f%% of the sweep request (%.2fms of %.2fms), want >= 95%%",
			100*cover, float64(childNs)/1e6, float64(tr.DurNs)/1e6)
	}
}

// TestMetricsPromtextLint parses every line of a live /metrics scrape the way
// a strict Prometheus ingester would: HELP before TYPE before samples, legal
// names and label syntax, parseable values, histogram buckets cumulative with
// le="+Inf" equal to the series count.
func TestMetricsPromtextLint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A cold sweep (design unused elsewhere in this package) exercises the
	// solver and pool so the engine histograms have observations.
	if code, _, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"1B6m"}`); code != http.StatusOK {
		t.Fatalf("sweep: code=%d", code)
	}
	code, body := getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code=%d", code)
	}
	typed, values := lintPromText(t, body)

	// The series this PR introduces must be present, and the engine
	// histograms must have real observations after a cold sweep.
	for _, name := range []string{
		"smtflexd_build_info", "smtflexd_solver_iterations", "smtflexd_pool_queue_seconds",
		"smtflexd_memo_hits_total", "smtflexd_memo_misses_total", "smtflexd_memo_coalesced_total",
		"smtflexd_coalesced_sweeps_total",
	} {
		if typed[name] == "" {
			t.Errorf("metric %s missing from scrape", name)
		}
	}
	if values["smtflexd_solver_iterations_count"] == 0 {
		t.Error("solver iterations histogram empty after a cold sweep")
	}
	if values["smtflexd_pool_queue_seconds_count"] == 0 {
		t.Error("pool queue histogram empty after a cold sweep")
	}
	if sum := values["smtflexd_solver_iterations_sum"]; sum <= 0 {
		t.Errorf("solver iterations sum %g after a cold sweep", sum)
	}
}

// lintPromText parses a /metrics exposition the way a strict Prometheus
// ingester would, failing the test on any malformed line. It returns the
// name -> type map and the name+labels -> value map for content assertions.
func lintPromText(t *testing.T, body []byte) (typed map[string]string, values map[string]float64) {
	t.Helper()
	helped := map[string]bool{}
	typed = map[string]string{}
	values = map[string]float64{} // name+labels -> value
	type bucket struct {
		le  float64
		val float64
	}
	buckets := map[string][]bucket{} // histogram series key -> cumulative buckets in order
	for ln, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: blank line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, kind := parts[0], parts[1]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("line %d: unknown type %q", ln+1, kind)
			}
			if !helped[name] {
				t.Fatalf("line %d: TYPE %s before its HELP", ln+1, name)
			}
			if _, dup := typed[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			typed[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}

		name, labels, value := parsePromSample(t, ln+1, line)
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(name, suffix); trimmed != name && typed[trimmed] == "histogram" {
				base = trimmed
			}
		}
		if !helped[base] || typed[base] == "" {
			t.Fatalf("line %d: sample %s without preceding HELP/TYPE for %s", ln+1, name, base)
		}
		if typed[base] == "histogram" && strings.HasSuffix(name, "_bucket") {
			le, ok := labels["le"]
			if !ok {
				t.Fatalf("line %d: histogram bucket without le: %q", ln+1, line)
			}
			key := base + seriesKey(labels, "le")
			b := bucket{val: value}
			if le == "+Inf" {
				b.le = 0
			} else {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("line %d: bad le %q", ln+1, le)
				}
				b.le = f
			}
			buckets[key] = append(buckets[key], b)
		}
		values[name+seriesKey(labels, "")] = value
	}

	// Histogram invariants: cumulative buckets never decrease and +Inf (the
	// final bucket) equals the series' _count.
	for key, bs := range buckets {
		for i := 1; i < len(bs); i++ {
			if bs[i].val < bs[i-1].val {
				t.Fatalf("%s: bucket %d (%g) below previous (%g)", key, i, bs[i].val, bs[i-1].val)
			}
		}
		base, rest, _ := strings.Cut(key, "{")
		countKey := base + "_count"
		if rest != "" && rest != "}" {
			countKey += "{" + rest
		}
		count, ok := values[countKey]
		if !ok {
			t.Fatalf("%s: no matching %s", key, countKey)
		}
		if inf := bs[len(bs)-1].val; inf != count {
			t.Fatalf("%s: le=+Inf bucket %g != count %g", key, inf, count)
		}
	}
	return typed, values
}

// parsePromSample splits one sample line into name, labels and value,
// validating name characters and label syntax (escaped quotes included).
func parsePromSample(t *testing.T, ln int, line string) (string, map[string]string, float64) {
	t.Helper()
	nameEnd := 0
	for nameEnd < len(line) {
		c := line[nameEnd]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':' {
			nameEnd++
			continue
		}
		break
	}
	if nameEnd == 0 || line[0] >= '0' && line[0] <= '9' {
		t.Fatalf("line %d: illegal metric name in %q", ln, line)
	}
	name := line[:nameEnd]
	rest := line[nameEnd:]
	labels := map[string]string{}
	if strings.HasPrefix(rest, "{") {
		i := 1
		for {
			keyStart := i
			for i < len(rest) && rest[i] != '=' {
				i++
			}
			if i >= len(rest) || keyStart == i {
				t.Fatalf("line %d: malformed label key in %q", ln, line)
			}
			key := rest[keyStart:i]
			i++ // '='
			if i >= len(rest) || rest[i] != '"' {
				t.Fatalf("line %d: label %s value not quoted in %q", ln, key, line)
			}
			i++
			var val strings.Builder
			for i < len(rest) && rest[i] != '"' {
				if rest[i] == '\\' {
					i++
					if i >= len(rest) {
						t.Fatalf("line %d: dangling escape in %q", ln, line)
					}
				}
				val.WriteByte(rest[i])
				i++
			}
			if i >= len(rest) {
				t.Fatalf("line %d: unterminated label value in %q", ln, line)
			}
			i++ // closing '"'
			labels[key] = val.String()
			if i < len(rest) && rest[i] == ',' {
				i++
				continue
			}
			break
		}
		if i >= len(rest) || rest[i] != '}' {
			t.Fatalf("line %d: unterminated label set in %q", ln, line)
		}
		rest = rest[i+1:]
	}
	if !strings.HasPrefix(rest, " ") {
		t.Fatalf("line %d: no space before value in %q", ln, line)
	}
	value, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("line %d: unparseable value in %q: %v", ln, line, err)
	}
	return name, labels, value
}

// seriesKey renders a label set (minus one excluded key) deterministically.
func seriesKey(labels map[string]string, exclude string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != exclude {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}
