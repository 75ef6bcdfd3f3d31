package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smtflex/internal/config"
	"smtflex/internal/core"
	"smtflex/internal/workload"
)

// coreTypes are the profiled core types; every (benchmark, core type) pair
// is one profile.
var coreTypes = []config.CoreType{config.Big, config.Medium, config.Small}

// profileAll measures all 36 (benchmark, core type) profiles with nproc
// callers, as a cold campaign or a daemon's start does, and returns each
// call's latency in ms. Core type is the outer loop so the callers work on
// different benchmarks and rarely wait on each other's shared curve pass.
func profileAll(ctx context.Context, sim *core.Simulator, tr *tracer, parent int64) ([]float64, error) {
	type pair struct {
		bench string
		ct    config.CoreType
	}
	var pairs []pair
	for _, ct := range coreTypes {
		for _, b := range workload.Names() {
			pairs = append(pairs, pair{b, ct})
		}
	}
	lat := make([]float64, len(pairs))
	errs := make([]error, len(pairs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				p := pairs[i]
				spec, err := workload.ByName(p.bench)
				if err != nil {
					errs[i] = err
					continue
				}
				sp := tr.begin("profiler", "profile "+p.bench+"/"+p.ct.String(), parent, tr.group())
				t := time.Now()
				_, errs[i] = sim.Source().ProfileCtx(ctx, spec, p.ct)
				lat[i] = millis(time.Since(t))
				sp.end()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("profiling: %w", err)
	}
	return lat, nil
}

// handlerTimer is the benchmark's timing middleware around a daemon's
// handler: it counts requests and 503 refusals, keeps each request's busy
// time, and in traced passes records a span per request, linked to the
// client's span through the X-Request-ID the benchmark sends.
type handlerTimer struct {
	layer string
	tr    *tracer
	// front marks the daemon that receives the client's requests; its spans
	// become the parents of the fleet workers' spans.
	front bool

	requests, rejected atomic.Int64
	mu                 sync.Mutex
	busyMs             []float64
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *handlerTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		group, parent := parseRequestID(r.Header.Get("X-Request-ID"))
		if !h.front {
			if id, ok := h.tr.serverSpanOf(group); ok {
				parent = id
			}
		}
		sp := h.tr.begin(h.layer, r.Method+" "+r.URL.Path, parent, group)
		if h.front {
			h.tr.setServerSpan(group, sp.id())
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t := time.Now()
		next.ServeHTTP(sw, r)
		d := millis(time.Since(t))
		sp.end()
		h.requests.Add(1)
		if sw.code == http.StatusServiceUnavailable {
			h.rejected.Add(1)
		}
		h.mu.Lock()
		h.busyMs = append(h.busyMs, d)
		h.mu.Unlock()
	})
}

func (h *handlerTimer) busy() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.busyMs...)
}

// listener is one daemon served on a loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

// serve starts h on a fresh loopback port.
func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return l, nil
}

// stop shuts the daemon down, waiting for in-flight requests and for the
// serving goroutine to exit.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close()
	}
	<-l.done
}

// healthy waits until the daemon answers /healthz.
func healthy(ctx context.Context, client *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// newClient returns a keep-alive client with at most conns connections.
func newClient(conns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one JSON request and returns the body of a 200 answer.
func post(ctx context.Context, client *http.Client, url string, body []byte, rid string) ([]byte, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, false
	}
	return b, true
}

// cloneSim builds a separate simulator at the benchmark's fidelity and loads
// it with src's profiles.
func cloneSim(rc runConfig, src *core.Simulator) (*core.Simulator, error) {
	var buf bytes.Buffer
	if err := src.Source().SaveJSON(&buf); err != nil {
		return nil, fmt.Errorf("saving profiles: %w", err)
	}
	return loadSim(rc, buf.Bytes())
}

func loadSim(rc runConfig, profiles []byte) (*core.Simulator, error) {
	sim := rc.newSim()
	if _, err := sim.Source().LoadJSON(bytes.NewReader(profiles)); err != nil {
		return nil, fmt.Errorf("loading profiles: %w", err)
	}
	return sim, nil
}

// profilerLedger reports the profile calls' latencies and the profile and
// curve measurements the engines' caches counted.
func profilerLedger(layers map[string]float64, profileMs []float64) {
	layers["profiler.profiles"] = layers["memo.profiles.misses"]
	layers["profiler.curves"] = layers["memo.curves.misses"]
	layers["profiler.busy_s"] = sum(profileMs) / 1000
	layers["profiler.ms_per_profile_p50"] = quantile(profileMs, 0.5)
	layers["profiler.ms_per_profile_max"] = maxOf(profileMs)
}

// serverLedger reports the front daemon's middleware observations.
func serverLedger(layers map[string]float64, t *handlerTimer) {
	busy := t.busy()
	layers["server.requests"] = float64(t.requests.Load())
	layers["server.busy_ms_p50"] = quantile(busy, 0.5)
	layers["server.busy_ms_p99"] = quantile(busy, 0.99)
	layers["server.rejected"] = float64(t.rejected.Load())
}
