package server

import (
	"bufio"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"smtflex/internal/core"
	"smtflex/internal/faults"
)

// Chaos suite: arm one fault-injection site at a time and prove the daemon
// survives — the failure maps to the right status code, the failure metrics
// move, /healthz keeps answering, the cache is not poisoned (the same request
// retried after disarming succeeds), and nothing leaks.
//
// The tests share one dedicated engine so cache warmth is under this file's
// control: each case that needs a cold computation uses a design or mix no
// earlier case has touched. They are deliberately sequential (the faults
// registry is global) and every injection is Count-limited so a failed
// assertion cannot leave a site armed for the next case.

var (
	chaosOnce sync.Once
	chaosEng  *core.Simulator
)

func chaosSim() *core.Simulator {
	chaosOnce.Do(func() { chaosEng = core.NewSimulator(testSimOpts()...) })
	return chaosEng
}

// metricValue scrapes /metrics and returns the value of the first line
// starting with prefix, or 0 if the series has not appeared yet.
func metricValue(t *testing.T, url, prefix string) float64 {
	t.Helper()
	code, body := getJSON(t, url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics scrape: code=%d", code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, prefix) {
			f := line[strings.LastIndexByte(line, ' ')+1:]
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

func assertHealthy(t *testing.T, url string) {
	t.Helper()
	code, body := getJSON(t, url+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("daemon unhealthy: code=%d body=%s", code, body)
	}
}

func TestChaos(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	goroutinesBefore := runtime.NumGoroutine()

	_, ts := newTestServer(t, Config{Sim: chaosSim(), MaxConcurrent: 4})

	// failCase arms one site, fires a request expecting it to fail in a
	// specific way, then disarms and proves the identical request now
	// succeeds — the failed computation must not have been cached.
	failCase := func(t *testing.T, site faults.Site, inj faults.Injection, path, body string, wantCode int, wantBody, wantKind string) {
		t.Helper()
		assertHealthy(t, ts.URL)
		kindMetric := `smtflexd_engine_failures_total{kind="` + wantKind + `"}`
		before := metricValue(t, ts.URL, kindMetric)

		faults.Enable(site, inj)
		code, resp, _ := postJSON(t, ts.URL+path, body)
		if code != wantCode {
			t.Fatalf("injected %s at %s: code=%d body=%s, want %d", inj.Mode, site, code, resp, wantCode)
		}
		if !strings.Contains(string(resp), wantBody) {
			t.Fatalf("error body %s does not mention %q", resp, wantBody)
		}
		if wantKind != "" {
			if after := metricValue(t, ts.URL, kindMetric); after != before+1 {
				t.Fatalf("%s went %g -> %g, want +1", kindMetric, before, after)
			}
		}
		if n := faults.Triggered(site); n != 1 {
			t.Fatalf("site %s fired %d times, want exactly 1 (Count limit)", site, n)
		}

		faults.Reset()
		if code, resp, _ := postJSON(t, ts.URL+path, body); code != http.StatusOK {
			t.Fatalf("retry after disarm: code=%d body=%s — failed computation was cached", code, resp)
		}
		assertHealthy(t, ts.URL)
	}

	one := faults.Injection{Mode: faults.ModeError, Count: 1}

	t.Run("profiler error fails the sweep", func(t *testing.T) {
		// First touch of the engine: the 4B sweep must measure big-core
		// profiles, so the profiler site is guaranteed to fire.
		failCase(t, faults.SiteProfiler, one,
			"/v1/sweep", `{"design":"4B"}`, http.StatusInternalServerError, "injected", "injected")
	})

	t.Run("profiler latency only slows the sweep", func(t *testing.T) {
		assertHealthy(t, ts.URL)
		const delay = 150 * time.Millisecond
		faults.Enable(faults.SiteProfiler, faults.Injection{Mode: faults.ModeLatency, Latency: delay, Count: 1})
		start := time.Now()
		// 8m is cold and medium-cored: its medium profiles miss the
		// profile cache, though the 4B sweep measured them with big.
		code, body, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"8m"}`)
		if code != http.StatusOK {
			t.Fatalf("latency injection broke the sweep: code=%d body=%s", code, body)
		}
		if elapsed := time.Since(start); elapsed < delay-10*time.Millisecond {
			t.Fatalf("sweep took %v, injected latency %v never fired", elapsed, delay)
		}
		faults.Reset()
		assertHealthy(t, ts.URL)
	})

	t.Run("memo error fails the sweep without poisoning the cache", func(t *testing.T) {
		failCase(t, faults.SiteMemo, one,
			"/v1/sweep", `{"design":"20s"}`, http.StatusInternalServerError, "injected", "injected")
	})

	t.Run("worker error fails the sweep", func(t *testing.T) {
		failCase(t, faults.SiteWorker, one,
			"/v1/sweep", `{"design":"3B5s"}`, http.StatusInternalServerError, "injected", "injected")
	})

	t.Run("worker panic is contained to a 500", func(t *testing.T) {
		failCase(t, faults.SiteWorker, faults.Injection{Mode: faults.ModePanic, Count: 1},
			"/v1/sweep", `{"design":"2B4m"}`, http.StatusInternalServerError, "panic", "panic")
	})

	t.Run("solver NaN surfaces as divergence", func(t *testing.T) {
		failCase(t, faults.SiteSolver, faults.Injection{Mode: faults.ModeNaN, Count: 1},
			"/v1/place", `{"design":"4B","programs":["mcf","tonto"]}`,
			http.StatusUnprocessableEntity, "diverged", "diverged")
	})

	t.Run("solver error fails the placement", func(t *testing.T) {
		failCase(t, faults.SiteSolver, one,
			"/v1/place", `{"design":"4B","programs":["soplex","hmmer"]}`,
			http.StatusInternalServerError, "injected", "injected")
	})

	t.Run("handler panic is recovered and counted", func(t *testing.T) {
		assertHealthy(t, ts.URL)
		panicsBefore := metricValue(t, ts.URL, "smtflexd_panics_total")
		faults.Enable(faults.SiteHandler, faults.Injection{Mode: faults.ModePanic, Count: 1})
		code, body, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"4B"}`)
		if code != http.StatusInternalServerError || !strings.Contains(string(body), "panicked") {
			t.Fatalf("handler panic: code=%d body=%s", code, body)
		}
		if after := metricValue(t, ts.URL, "smtflexd_panics_total"); after != panicsBefore+1 {
			t.Fatalf("smtflexd_panics_total went %g -> %g, want +1", panicsBefore, after)
		}
		faults.Reset()
		if code, body, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"4B"}`); code != http.StatusOK {
			t.Fatalf("daemon did not recover from handler panic: code=%d body=%s", code, body)
		}
		assertHealthy(t, ts.URL)
	})

	t.Run("handler error fails the stream before it begins", func(t *testing.T) {
		assertHealthy(t, ts.URL)
		const kindMetric = `smtflexd_engine_failures_total{kind="injected"}`
		const stream = "/v1/sweep?stream=1&design=4B"
		before := metricValue(t, ts.URL, kindMetric)
		faults.Enable(faults.SiteHandler, one)
		resp, err := http.Get(ts.URL + stream)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("Content-Type") != "application/json" ||
			!strings.Contains(string(body), "injected") {
			t.Fatalf("injected handler error on the stream: code=%d Content-Type=%q body=%s, want a JSON 500",
				resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
		if after := metricValue(t, ts.URL, kindMetric); after != before+1 {
			t.Fatalf("%s went %g -> %g, want +1", kindMetric, before, after)
		}
		faults.Reset()
		resp, err = http.Get(ts.URL + stream)
		if err != nil {
			t.Fatal(err)
		}
		events := readSSE(t, bufio.NewScanner(resp.Body))
		resp.Body.Close()
		if len(events) == 0 || events[len(events)-1].event != "result" {
			t.Fatalf("stream after disarm: events %+v, want a final result", events)
		}
		assertHealthy(t, ts.URL)
	})

	t.Run("no goroutine leak", func(t *testing.T) {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= goroutinesBefore+8 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("goroutines grew from %d to %d across the chaos cases",
					goroutinesBefore, runtime.NumGoroutine())
			}
			time.Sleep(50 * time.Millisecond)
		}
	})
}
