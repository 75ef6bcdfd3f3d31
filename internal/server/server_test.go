package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smtflex/internal/config"
	"smtflex/internal/core"
	"smtflex/internal/sched"
	"smtflex/internal/study"
	"smtflex/internal/timeline"
	"smtflex/internal/workload"
)

// testSimOpts builds every engine in this file identically so responses can
// be compared bit-for-bit across independently constructed simulators.
func testSimOpts() []core.Option {
	return []core.Option{core.WithUopCount(60_000), core.WithMixesPerCount(2)}
}

var (
	simOnce sync.Once
	sim     *core.Simulator
)

func sharedSim() *core.Simulator {
	simOnce.Do(func() { sim = core.NewSimulator(testSimOpts()...) })
	return sim
}

var (
	serialOnce sync.Once
	serialSim  *core.Simulator
)

// sharedSerialSim is a single-worker engine for the cancellation and
// timeout tests: serial evaluation makes sweeps slow enough to interrupt
// mid-flight and the evaluation counter attributable. Shared because
// profiling a fresh engine is expensive under -race.
func sharedSerialSim() *core.Simulator {
	serialOnce.Do(func() {
		serialSim = core.NewSimulator(core.WithUopCount(60_000), core.WithParallelism(1))
	})
	return serialSim
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer stands up a Server over httptest, defaulting to the shared
// engine and a silent logger.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Sim == nil {
		cfg.Sim = sharedSim()
	}
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b, resp.Header
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: code=%d body=%s", code, body)
	}
	// A request must show up in the scrape.
	if code, _, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"4B"}`); code != http.StatusOK {
		t.Fatalf("sweep for metrics: code=%d", code)
	}
	code, body = getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code=%d", code)
	}
	for _, want := range []string{
		`smtflexd_requests_total{route="/v1/sweep",code="200"}`,
		`smtflexd_request_duration_seconds_bucket{route="/v1/sweep",le="+Inf"}`,
		"smtflexd_rejected_total",
		`smtflexd_cache_entries{cache="sweeps"}`,
		"smtflexd_queue_waiting",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSweepMatchesEngine is the shared-engine equivalence check: the table a
// client gets over the wire must be bit-identical to what the batch path
// computes from an independently constructed engine. Go's JSON encoding of
// float64 round-trips exactly, so == is the right comparison.
func TestSweepMatchesEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"4B"}`)
	if code != http.StatusOK {
		t.Fatalf("sweep: code=%d body=%s", code, body)
	}
	var got SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	ref := core.NewSimulator(testSimOpts()...)
	d, err := config.DesignByName("4B", true)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ref.Study().SweepDesign(context.Background(), d, study.Homogeneous)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.STP) != study.MaxThreads || len(got.ByMix) != len(sw.ByMix) {
		t.Fatalf("shape: stp=%d bymix=%d", len(got.STP), len(got.ByMix))
	}
	for i := 0; i < study.MaxThreads; i++ {
		if got.STP[i] != sw.STP[i] || got.ANTT[i] != sw.ANTT[i] || got.Watts[i] != sw.Watts[i] {
			t.Fatalf("n=%d: server (%v,%v,%v) != engine (%v,%v,%v)",
				i+1, got.STP[i], got.ANTT[i], got.Watts[i], sw.STP[i], sw.ANTT[i], sw.Watts[i])
		}
	}
	for m := range sw.ByMix {
		if got.MixNames[m] != sw.MixNames[m] {
			t.Fatalf("mix %d name %q != %q", m, got.MixNames[m], sw.MixNames[m])
		}
		for i := 0; i < study.MaxThreads; i++ {
			if got.ByMix[m][i] != sw.ByMix[m][i] {
				t.Fatalf("mix %d n=%d: %v != %v", m, i+1, got.ByMix[m][i], sw.ByMix[m][i])
			}
		}
	}
}

// TestSweepCoalesces fires identical concurrent sweeps at a cold design and
// checks they collapse onto one engine computation.
func TestSweepCoalesces(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 8})
	before := s.study().Evaluations()

	const clients = 4
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
				strings.NewReader(`{"design":"3B5s","kind":"homogeneous"}`))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: code %d", i, resp.StatusCode)
				return
			}
			bodies[i], err = io.ReadAll(resp.Body)
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d response differs from client 0", i)
		}
	}
	// One homogeneous sweep costs exactly 24 thread counts x all
	// benchmarks; four coalesced clients must not multiply that.
	oneSweep := int64(study.MaxThreads * len(workload.Names()))
	if delta := s.study().Evaluations() - before; delta != oneSweep {
		t.Fatalf("4 coalesced sweeps cost %d evaluations, want %d (one sweep)", delta, oneSweep)
	}
	// A fifth request is a pure cache hit.
	mid := s.study().Evaluations()
	if code, _, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"3B5s","kind":"homogeneous"}`); code != http.StatusOK {
		t.Fatalf("cached sweep: code=%d", code)
	}
	if delta := s.study().Evaluations() - mid; delta != 0 {
		t.Fatalf("cached sweep recomputed %d evaluations", delta)
	}
}

func TestPlace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := postJSON(t, ts.URL+"/v1/place",
		`{"design":"4B","programs":["tonto","calculix","tonto","calculix"]}`)
	if code != http.StatusOK {
		t.Fatalf("place: code=%d body=%s", code, body)
	}
	var got PlaceResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.CoreOf) != 4 {
		t.Fatalf("CoreOf has %d entries, want 4", len(got.CoreOf))
	}
	if got.STP <= 0 || got.ANTT < 1 || got.Watts <= 0 {
		t.Fatalf("implausible metrics: %+v", got)
	}
}

// TestPlaceCoreOfMatchesSched checks that the cores /v1/place reports,
// read from the evaluation's threads, are sched.Place's assignment.
func TestPlaceCoreOfMatchesSched(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mixes := [][]string{
		{"mcf"},
		{"tonto", "libquantum", "gcc"},
		{"hmmer", "hmmer", "soplex", "bzip2", "omnetpp", "sjeng", "gobmk"},
	}
	for _, name := range []string{"4B", "3B5s", "1B6m", "20s"} {
		d, err := config.DesignByName(name, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, progs := range mixes {
			body, err := json.Marshal(PlaceRequest{Design: name, Programs: progs})
			if err != nil {
				t.Fatal(err)
			}
			code, raw, _ := postJSON(t, ts.URL+"/v1/place", string(body))
			if code != http.StatusOK {
				t.Fatalf("%s %v: code=%d body=%s", name, progs, code, raw)
			}
			var got PlaceResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			want, err := sched.Place(d, workload.Mix{ID: "api", Programs: progs}, sharedSim().Source())
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.CoreOf) != fmt.Sprint(want.CoreOf) {
				t.Errorf("%s %v: CoreOf %v, sched.Place %v", name, progs, got.CoreOf, want.CoreOf)
			}
		}
	}
}

func TestFigureEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := getJSON(t, ts.URL+"/v1/figures/table1")
	if code != http.StatusOK {
		t.Fatalf("figure: code=%d body=%s", code, body)
	}
	var got TableResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := sharedSim().Figure(context.Background(), "table1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != want.Title || len(got.Cells) != len(want.Cells) {
		t.Fatalf("table mismatch: %q/%d vs %q/%d", got.Title, len(got.Cells), want.Title, len(want.Cells))
	}
	for r := range want.Cells {
		for c := range want.Cells[r] {
			if got.Cells[r][c] != want.Cells[r][c] {
				t.Fatalf("cell [%d][%d]: %v != %v", r, c, got.Cells[r][c], want.Cells[r][c])
			}
		}
	}

	if code, _ := getJSON(t, ts.URL+"/v1/figures/fig99"); code != http.StatusNotFound {
		t.Fatalf("unknown figure: code=%d, want 404", code)
	}
}

func TestJobsimMatchesEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := postJSON(t, ts.URL+"/v1/jobsim", `{"designs":["4B","8m"],"jobs":10}`)
	if code != http.StatusOK {
		t.Fatalf("jobsim: code=%d body=%s", code, body)
	}
	var got JobsimResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 2 || got.Runs[0].Design != "4B" || got.Runs[1].Design != "8m" {
		t.Fatalf("runs: %+v", got.Runs)
	}
	jobs := timeline.PoissonWorkload(10, 1.5e6, 2e7, 2014)
	want, err := sharedSim().JobStream(context.Background(), []string{"4B", "8m"}, true, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.Runs[i].MakespanNs != want[i].Result.MakespanNs ||
			got.Runs[i].MeanTurnaroundNs != want[i].Result.MeanTurnaroundNs ||
			got.Runs[i].EnergyJoules != want[i].Result.EnergyJoules {
			t.Fatalf("run %d: %+v != %+v", i, got.Runs[i], want[i].Result)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"unknown design", "/v1/sweep", `{"design":"nope"}`, http.StatusBadRequest},
		{"missing design", "/v1/sweep", `{}`, http.StatusBadRequest},
		{"bad json", "/v1/sweep", `{"design":`, http.StatusBadRequest},
		{"unknown field", "/v1/sweep", `{"desgin":"4B"}`, http.StatusBadRequest},
		{"bad kind", "/v1/sweep", `{"design":"4B","kind":"weird"}`, http.StatusBadRequest},
		{"bad timeout", "/v1/sweep?timeout_ms=abc", `{"design":"4B"}`, http.StatusBadRequest},
		{"no programs", "/v1/place", `{"design":"4B","programs":[]}`, http.StatusBadRequest},
		{"unknown program", "/v1/place", `{"design":"4B","programs":["nosuch"]}`, http.StatusBadRequest},
		{"negative jobs", "/v1/jobsim", `{"jobs":-3}`, http.StatusBadRequest},
		{"unknown jobsim design", "/v1/jobsim", `{"designs":["nope"],"jobs":2}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body, _ := postJSON(t, ts.URL+tc.path, tc.body)
			if code != tc.want {
				t.Fatalf("code=%d want=%d body=%s", code, tc.want, body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body not structured: %s", body)
			}
		})
	}
}

// TestBackpressure fills the admission valve and checks overload is shed
// with 503 + Retry-After, then that capacity recovers.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	// Occupy the only slot directly; any request now finds the queue full.
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	code, body, hdr := postJSON(t, ts.URL+"/v1/sweep", `{"design":"4B"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overload: code=%d body=%s, want 503", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if _, mbody := getJSON(t, ts.URL+"/metrics"); !strings.Contains(string(mbody), "smtflexd_rejected_total 1") {
		t.Errorf("rejection not counted in metrics")
	}

	s.adm.release()
	if code, body, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"4B"}`); code != http.StatusOK {
		t.Fatalf("after release: code=%d body=%s", code, body)
	}
}

// TestCancellationStopsEngine checks the whole cancellation path: a client
// that disconnects mid-sweep stops the engine's worker pool, observable as
// the evaluation counter settling far short of a full sweep.
func TestCancellationStopsEngine(t *testing.T) {
	// A generous default deadline: the serial retry sweep below must not be
	// cut short by the server, only by the client-side cancel.
	s, ts := newTestServer(t, Config{Sim: sharedSerialSim(), DefaultTimeout: 30 * time.Minute})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep",
		strings.NewReader(`{"design":"8m"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request succeeded despite cancellation (code %d)", resp.StatusCode)
		}
		done <- err
	}()

	// Wait until the engine is demonstrably working, then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for s.study().Evaluations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(200 * time.Microsecond)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("client saw success after cancel")
	}

	// The pool must stop: the counter settles instead of marching to a full
	// sweep.
	settle := func() int64 {
		for {
			v := s.study().Evaluations()
			time.Sleep(100 * time.Millisecond)
			if s.study().Evaluations() == v {
				return v
			}
		}
	}
	cancelled := settle()

	// Rerunning with a live context completes and reveals the full cost;
	// the aborted attempt must not have been cached.
	before := s.study().Evaluations()
	code, body, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"8m"}`)
	if code != http.StatusOK {
		t.Fatalf("retry after cancel: code=%d body=%s", code, body)
	}
	full := s.study().Evaluations() - before
	if full == 0 {
		t.Fatal("first sweep completed before cancellation landed; nothing was cancelled")
	}
	if cancelled >= full {
		t.Fatalf("cancelled sweep ran %d evaluations, full sweep costs %d — cancellation did not stop the pool", cancelled, full)
	}
}

// TestGracefulShutdownDrains boots a real listener, parks a request
// in-flight, and checks Shutdown completes it rather than killing it.
func TestGracefulShutdownDrains(t *testing.T) {
	s, err := New(Config{Sim: sharedSim(), Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/sweep",
			"application/json", strings.NewReader(`{"design":"20s"}`))
		if err != nil {
			done <- result{0, err}
			return
		}
		defer resp.Body.Close()
		_, err = io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, err}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for s.adm.executing() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the server")
		}
		time.Sleep(200 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
	r := <-done
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request not drained: code=%d err=%v", r.code, r.err)
	}
}

func TestTimeoutProducesGatewayTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Sim: sharedSerialSim()})
	// 1ms cannot complete a cold serial sweep.
	code, body, _ := postJSON(t, ts.URL+"/v1/sweep?timeout_ms=1", `{"design":"2B10s"}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("code=%d body=%s, want 504", code, body)
	}
}
