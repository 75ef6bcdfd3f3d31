package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"smtflex/internal/core"
	"smtflex/internal/perfdiff"
)

// perfSharedSim is this file's own engine: the engine histograms only see
// observations from sweeps that actually evaluate, and the package-shared
// sim may have any design memoized already by earlier tests. Tests here
// sweep distinct designs so each drives real solver work.
var (
	perfSimOnce sync.Once
	perfSim     *core.Simulator
)

func perfSharedSim() *core.Simulator {
	perfSimOnce.Do(func() { perfSim = core.NewSimulator(testSimOpts()...) })
	return perfSim
}

func TestPerfsnapEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Sim: perfSharedSim()})
	// Drive one sweep so the snapshot has traffic to attribute.
	if code, _, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"4B"}`); code != http.StatusOK {
		t.Fatalf("sweep: code=%d", code)
	}
	code, body := getJSON(t, ts.URL+"/debug/perfsnap")
	if code != http.StatusOK {
		t.Fatalf("perfsnap: code=%d body=%s", code, body)
	}
	snap := &perfdiff.Snapshot{}
	if err := json.Unmarshal(body, snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if snap.Role != "solo" {
		t.Errorf("role %q, want solo", snap.Role)
	}
	if len(snap.TimeStacks) == 0 {
		t.Error("no time stacks after a sweep")
	}
	for _, name := range []string{perfdiff.HistSolverIterations, perfdiff.HistPoolQueueSeconds} {
		if _, ok := snap.Histogram(name); !ok {
			t.Errorf("histogram %q missing", name)
		}
	}
	if h, _ := snap.Histogram(perfdiff.HistSolverIterations); h.Count == 0 {
		t.Error("solver-iteration histogram empty after a sweep")
	}
	if len(snap.Caches) == 0 {
		t.Error("no cache counters")
	}
	if len(snap.Profiles) != 0 {
		t.Errorf("profiles attached without ?pprof=1: %d", len(snap.Profiles))
	}
}

func TestPerfsnapPprofProfiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// profile_ms=0 keeps the capture instant: heap only.
	code, body := getJSON(t, ts.URL+"/debug/perfsnap?pprof=1&profile_ms=0")
	if code != http.StatusOK {
		t.Fatalf("perfsnap pprof: code=%d", code)
	}
	snap := &perfdiff.Snapshot{}
	if err := json.Unmarshal(body, snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Profiles) != 1 || snap.Profiles[0].Kind != "heap" {
		t.Fatalf("profiles %+v, want one heap profile", snap.Profiles)
	}
	if len(snap.Profiles[0].Data) == 0 {
		t.Error("empty heap profile")
	}
	if code, _ := getJSON(t, ts.URL+"/debug/perfsnap?pprof=1&profile_ms=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus profile_ms: code=%d, want 400", code)
	}
}

func TestTimestackIncludesHistogramQuantiles(t *testing.T) {
	_, ts := newTestServer(t, Config{Sim: perfSharedSim()})
	// A heterogeneous sweep (48 cells at the test engine's two mixes) feeds
	// both histograms; the 288-cell homogeneous one ran past the server's
	// 60 s deadline under the race detector on a 2-vCPU host.
	if code, _, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"8m","kind":"heterogeneous"}`); code != http.StatusOK {
		t.Fatal("sweep failed")
	}
	code, body := getJSON(t, ts.URL+"/debug/timestack")
	if code != http.StatusOK {
		t.Fatalf("timestack: code=%d", code)
	}
	var resp TimestackResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Histograms) != 2 {
		t.Fatalf("histograms %+v, want solver + queue", resp.Histograms)
	}
	var iters HistQuantiles
	for _, h := range resp.Histograms {
		if h.Name == perfdiff.HistSolverIterations {
			iters = h
		}
	}
	if iters.Count == 0 || iters.P99 < iters.P50 {
		t.Errorf("solver-iteration quantiles %+v", iters)
	}
	// The text format renders the same summary lines.
	code, body = getJSON(t, ts.URL+"/debug/timestack?format=text")
	if code != http.StatusOK || !strings.Contains(string(body), perfdiff.HistSolverIterations) {
		t.Errorf("text timestack missing histogram summary: code=%d body=%s", code, body)
	}
}
