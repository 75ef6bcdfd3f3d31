package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smtflex/internal/config"
	"smtflex/internal/core"
	"smtflex/internal/dist"
	"smtflex/internal/sched"
	"smtflex/internal/server"
	"smtflex/internal/workload"
)

type placeSettings struct {
	SetupRepeats int `json:"setup_repeats"`
	// LadderRPS are the open-loop arrival rates, ascending; ReferenceRPS is
	// the rung whose latency is reported.
	LadderRPS    []float64 `json:"ladder_rps"`
	ReferenceRPS float64   `json:"reference_rps"`
	// SaturationRPS is the offered rate of the saturation windows, far
	// above what the daemon serves; one window follows every rung.
	SaturationRPS float64 `json:"saturation_rps"`
	// HandlerRounds is how many times the sequence is replayed through the
	// daemon's handler, without the network, for its CPU time per query.
	HandlerRounds int `json:"handler_rounds"`
	// Windows is how many consecutive windows the reference rung's
	// requests are split into for its latency percentiles.
	Windows int `json:"windows"`
	// P99LimitMs is the latency limit a rung's p99 must meet.
	P99LimitMs float64 `json:"p99_limit_ms"`
	TimeoutS   float64 `json:"request_timeout_s"`
}

// placeReq is one generated placement query.
type placeReq struct {
	design config.Design
	mix    workload.Mix
	body   []byte
	// at is the arrival time in mean inter-arrival gaps; at rate r the query
	// is due at/r seconds after its rung starts.
	at float64
}

// placeQueries generates the seeded query sequence every rung replays:
// Poisson arrivals, each placing a mix whose thread count follows the
// paper's datacenter distribution (Figure 10a) on one of the nine designs,
// with or without SMT. Rungs differ only in the arrival rate, so they carry
// identical work and differ only in load. The sequence is sized so that the
// whole ladder, saturation windows included, takes about secs seconds.
func placeQueries(ps placeSettings, seed int64, secs float64) []placeReq {
	var gaps float64
	for _, rps := range ps.LadderRPS {
		gaps += 1/rps + 1/ps.SaturationRPS
	}
	n := max(int(secs/gaps+0.5), 1)
	rng := rand.New(rand.NewSource(seed))
	names := workload.Names()
	dc := dist.Datacenter()
	reqs := make([]placeReq, n)
	var at float64
	for i := range reqs {
		at += rng.ExpFloat64()
		threads := sampleThreads(rng, dc)
		progs := make([]string, threads)
		for j := range progs {
			progs[j] = names[rng.Intn(len(names))]
		}
		smt := rng.Intn(2) == 0
		designs := config.NineDesigns(smt)
		d := designs[rng.Intn(len(designs))]
		body, _ := json.Marshal(server.PlaceRequest{Design: d.Name, SMT: &smt, Programs: progs})
		reqs[i] = placeReq{design: d, mix: workload.Mix{ID: "api", Programs: progs}, body: body, at: at}
	}
	return reqs
}

// completionRate is the rate at which a saturation window's requests
// completed, from its first completion to its last.
func completionRate(reqs []placeReq, rps float64, res rungResult) float64 {
	done := make([]float64, len(reqs))
	for i, q := range reqs {
		done[i] = q.at/rps*1000 + res.latMs[i]
	}
	sort.Float64s(done)
	if span := done[len(done)-1] - done[0]; span > 0 {
		return float64(len(done)-1) / span * 1000
	}
	return 0
}

func sampleThreads(rng *rand.Rand, d dist.Distribution) int {
	u := rng.Float64()
	for n := 1; n <= dist.MaxThreads; n++ {
		u -= d.Weight(n)
		if u < 0 {
			return n
		}
	}
	return dist.MaxThreads
}

// placeEnv is a solo daemon serving on loopback.
type placeEnv struct {
	sim       *core.Simulator
	profileMs []float64
	// handler is the daemon's own handler, without the benchmark's timing
	// middleware.
	handler http.Handler
	ln      *listener
	timer   *handlerTimer
	hists   engineHists
}

func startPlaceEnv(ctx context.Context, rc runConfig, client *http.Client) (*placeEnv, error) {
	sim := rc.newSim()
	lat, err := profileAll(ctx, sim, nil, 0)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Sim: sim, TraceBuffer: -1, Logger: discardLogger})
	if err != nil {
		return nil, err
	}
	// Installed after server.New, which installs its own: the ledger reads
	// these instead of scraping /metrics.
	hists := newEngineHists()
	sim.Study().SetEngineHistograms(hists.iters, hists.queue)
	timer := &handlerTimer{layer: "server", tr: rc.tr, front: true}
	ln, err := serve(timer.wrap(srv.Handler()))
	if err != nil {
		return nil, err
	}
	if err := healthy(ctx, client, ln.url); err != nil {
		ln.stop()
		return nil, err
	}
	return &placeEnv{sim: sim, profileMs: lat, handler: srv.Handler(), ln: ln, timer: timer, hists: hists}, nil
}

// rungResult holds one rung's per-request observations, indexed like the
// rung's requests.
type rungResult struct {
	// span runs from the rung's start to its last completion.
	span          time.Duration
	latMs, lateMs []float64
	backlog       []int
	// ok marks the requests answered with the expected body. Bodies are
	// compared on arrival and not kept, so the benchmark's live heap, and
	// with it the collector's share of each request's CPU time, stays the
	// same from the first rung to the last.
	ok []bool
}

// unitMinThreads is the smallest placement the per-thread latency covers.
// Below it the HTTP round trip dominates, per-thread latencies cluster by
// thread count (a one-thread query costs about twice a two-thread one per
// thread), and a percentile near a cluster's edge jumps between clusters:
// over all queries the per-thread p90 swung 0.44-0.60 ms over ten seeds on a
// 2-core host. From eight threads up (the datacenter distribution's second
// peak and above) the clusters overlap.
const unitMinThreads = 8

// runPlace is serve-place: open-loop Poisson arrivals over at most nproc
// keep-alive connections, at each rate of a fixed ladder, against a solo
// daemon whose profiles were all measured during set-up.
func runPlace(ctx context.Context, rc runConfig) (*outcome, error) {
	ps := rc.set.Place
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	conns := runtime.NumCPU()
	client := newClient(conns, time.Duration(ps.TimeoutS*float64(time.Second)))
	defer client.CloseIdleConnections()

	var env *placeEnv
	setups := make([]float64, ps.SetupRepeats)
	for i := range setups {
		if env != nil {
			env.ln.stop()
		}
		t := time.Now()
		var err error
		if env, err = startPlaceEnv(ctx, rc, client); err != nil {
			return nil, err
		}
		setups[i] = seconds(time.Since(t))
	}
	o.e2e["setup_s"] = quantile(setups, 0.5)
	o.close = env.ln.stop

	// Correctness: every response must equal the placement and evaluation a
	// separate simulator, loaded with the same profiles, computes for it.
	reqs := placeQueries(ps, rc.seed, rc.seconds)
	vsim, err := cloneSim(rc, env.sim)
	if err != nil {
		return nil, err
	}
	want := expectedPlaces(vsim, reqs)
	results := make([]rungResult, len(ps.LadderRPS))
	sat := make([]rungResult, len(ps.LadderRPS))
	// Usage is read around every rung and window, outside the requests'
	// timing.
	rungUse := make([]spent, len(ps.LadderRPS))
	satUse := make([]spent, len(ps.LadderRPS))
	phase := startTimed()
	root := rc.tr.begin(rootLayer, "ladder", 0, rc.tr.group())
	for i, rps := range ps.LadderRPS {
		u0 := readUsage()
		results[i] = runRung(ctx, client, env.ln.url, reqs, want, rps, conns, rc.tr, root.id())
		rungUse[i] = readUsage().since(u0)
		u0 = readUsage()
		// A saturation window after every rung spreads the throughput
		// measurement over the whole phase: a burst of host noise slows a
		// window or two, not their median.
		sat[i] = runRung(ctx, client, env.ln.url, reqs, want, ps.SaturationRPS, conns, rc.tr, root.id())
		satUse[i] = readUsage().since(u0)
	}
	handled := make([]rungResult, ps.HandlerRounds)
	handlerCPUMs := make([]float64, ps.HandlerRounds)
	for r := range handled {
		sp := rc.tr.begin("server", "handler round", root.id(), rc.tr.group())
		u0 := readUsage()
		handled[r] = handlerRound(ctx, env.handler, reqs, want)
		handlerCPUMs[r] = millis(readUsage().since(u0).cpu) / float64(len(reqs))
		sp.end()
	}
	root.end()
	phase.stop(o.e2e, o.layers)

	h := sha256.New()
	check := func(tag string, res rungResult) (failed int) {
		for j := range reqs {
			o.attempted++
			if !res.ok[j] {
				failed++
				fmt.Fprintf(h, "%s/%d failed\n", tag, j)
				continue
			}
			h.Write(want[j])
		}
		o.failed += failed
		return failed
	}
	maxRPS := 0.0
	var (
		ref    rungResult
		refUse spent
	)
	satRates := make([]float64, len(sat))
	satCPUMs := make([]float64, len(sat))
	for i, rps := range ps.LadderRPS {
		res := results[i]
		failed := check(fmt.Sprint(i), res)
		p99, grew := quantile(res.latMs, 0.99), growing(res.backlog)
		pass := failed == 0 && p99 <= ps.P99LimitMs && !grew
		if pass {
			maxRPS = max(maxRPS, rps)
		}
		o.notes = append(o.notes, fmt.Sprintf("rung %g rps: %d requests, %d failed, served %.0f/s, p50 %.3g ms, p90 %.3g ms, p99 %.3g ms, late p99 %.3g ms, backlog growing %t, meets limit %t, steal %.2f s",
			rps, len(reqs), failed, float64(len(reqs))/res.span.Seconds(), quantile(res.latMs, 0.5), quantile(res.latMs, 0.9), p99, quantile(res.lateMs, 0.99), grew, pass, rungUse[i].steal.Seconds()))
		if rps == ps.ReferenceRPS {
			ref, refUse = res, rungUse[i]
		}
		failed = check(fmt.Sprintf("sat%d", i), sat[i])
		satRates[i] = completionRate(reqs, ps.SaturationRPS, sat[i])
		satCPUMs[i] = millis(satUse[i].cpu) / float64(len(reqs))
		o.notes = append(o.notes, fmt.Sprintf("saturation window %d: %d requests, %d failed, completed %.0f/s, %.3g CPU ms per request, steal %.2f s",
			i, len(reqs), failed, satRates[i], satCPUMs[i], satUse[i].steal.Seconds()))
	}
	for r, res := range handled {
		failed := check(fmt.Sprintf("handler%d", r), res)
		o.notes = append(o.notes, fmt.Sprintf("handler round %d: %d requests, %d failed, %.3g CPU ms per request", r, len(reqs), failed, handlerCPUMs[r]))
	}
	o.digest = hex.EncodeToString(h.Sum(nil))

	var perThread []float64
	for j, q := range reqs {
		if n := q.mix.NumThreads(); n >= unitMinThreads {
			perThread = append(perThread, ref.latMs[j]/float64(n))
		}
	}
	// The daemon's CPU cost per query is taken from the handler rounds. In
	// the saturation windows, where client and daemon hand each request back
	// and forth over two connections, the process's CPU time per request
	// also counts the scheduler's spinning between hand-offs, which follows
	// how promptly the VM's idle CPUs wake: it read 0.46-0.65 ms over ten
	// runs of one seed on a shared 2-core VM, and the completion rate
	// 2238-3778 req/s over ten seeds. Both are printed.
	o.e2e["cpu_ms_per_op"] = quantile(handlerCPUMs, 0.5)
	// Latencies at the reference rate are the median over consecutive
	// windows of each window's percentile: a host stall of 50-100 ms delays
	// a dozen queries at 200 rps and moves the percentiles of the window it
	// falls in, not the median window's. The gate takes the median latency
	// only: the reference rung's p90 follows the time stolen from the VM
	// during the rung (1.8 ms with none, 5.1-5.5 ms with 2.7-3.0 CPU-seconds
	// stolen), and its pooled p99 rests on seventeen queries.
	o.e2e["lat_p50_ms"] = windowQuantile(ref.latMs, ps.Windows, 0.5)
	o.cost = o.e2e["cpu_ms_per_op"]
	o.named = []named{
		{"setup_s", o.e2e["setup_s"], "s"},
		{"place_p50_ms", o.e2e["lat_p50_ms"], "ms"},
		{"place_p90_ms", windowQuantile(ref.latMs, ps.Windows, 0.9), "ms"},
		{"place_p99_ms", quantile(ref.latMs, 0.99), "ms"},
		{"place_ms_per_thread_p50", windowQuantile(perThread, ps.Windows, 0.5), "ms"},
		{"place_ms_per_thread_p90", windowQuantile(perThread, ps.Windows, 0.9), "ms"},
		{"place_max_rps", maxRPS, "req/s"},
		{"place_saturated_rps", quantile(satRates, 0.5), "req/s"},
		{"place_saturated_cpu_ms_per_request", quantile(satCPUMs, 0.5), "ms"},
		{"place_handler_cpu_ms_per_request", o.e2e["cpu_ms_per_op"], "ms"},
		{"place_requests_per_rung", float64(len(reqs)), "count"},
		{"reference_rung_steal_s", refUse.steal.Seconds(), "s"},
		{"peak_rss_mb", o.e2e["peak_rss_mb"], "MB"},
	}

	backlogMax := 0
	for _, b := range ref.backlog {
		backlogMax = max(backlogMax, b)
	}
	o.layers["loadgen.late_ms_p99"] = quantile(ref.lateMs, 0.99)
	o.layers["loadgen.backlog_max"] = float64(backlogMax)
	st := env.sim.Study()
	addCounters(o.layers, st.CacheCounters())
	o.layers["study.cells"] = float64(st.Evaluations())
	o.layers["study.sweeps"] = o.layers["memo.sweeps.misses"]
	profilerLedger(o.layers, env.profileMs)
	env.hists.report(o.layers)
	serverLedger(o.layers, env.timer)

	replay := make([]cellRef, len(reqs))
	for i, q := range reqs {
		replay[i] = cellRef{design: q.design, mix: q.mix}
	}
	o.probe = probeInput{sim: env.sim, replay: replay}
	return o, nil
}

// runRung sends one rung's schedule. A dispatcher releases each request at
// its due time into a queue that conns senders drain; latency runs from the
// due time, so time spent queued behind a slow request counts. Each answer
// is checked against want, the expected body (nil where none exists).
func runRung(ctx context.Context, client *http.Client, url string, reqs []placeReq, want [][]byte, rps float64, conns int, tr *tracer, root int64) rungResult {
	n := len(reqs)
	dueOf := func(i int) time.Duration { return time.Duration(reqs[i].at / rps * float64(time.Second)) }
	res := rungResult{
		latMs: make([]float64, n), lateMs: make([]float64, n),
		backlog: make([]int, n), ok: make([]bool, n),
	}
	queue := make(chan int, n) // sized to the rung's sends: the dispatcher never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				q := reqs[i]
				due := start.Add(dueOf(i))
				res.lateMs[i] = millis(time.Since(due))
				g := tr.group()
				sp := tr.beginAt("loadgen", "place", root, g, due)
				body, ok := post(ctx, client, url+"/v1/place", q.body, requestID(g, sp.id()))
				res.latMs[i] = millis(time.Since(due))
				sp.end()
				res.ok[i] = ok && want[i] != nil && bytes.Equal(body, want[i])
			}
		}()
	}
	for i := range reqs {
		if d := time.Until(start.Add(dueOf(i))); d > 0 {
			time.Sleep(d)
		}
		res.backlog[i] = len(queue)
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.span = time.Since(start)
	return res
}

// backlogGrowth is how many more queued requests, on average, the arrivals
// of a rung's last quarter may find than those of its first quarter before
// the backlog counts as growing: a few requests' worth of queueing, far below
// what a rung spent above capacity accumulates.
const backlogGrowth = 8

// growing reports whether the generator's backlog grew over the rung.
func growing(backlog []int) bool {
	n := len(backlog)
	if n < 4 {
		return false
	}
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	return mean(backlog[n-n/4:]) > mean(backlog[:n/4])+backlogGrowth
}

// handlerRound replays the sequence through the daemon's handler from one
// goroutine, as an in-process caller would, and checks every answer against
// want.
func handlerRound(ctx context.Context, h http.Handler, reqs []placeReq, want [][]byte) rungResult {
	res := rungResult{ok: make([]bool, len(reqs))}
	for i, q := range reqs {
		req := httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(q.body)).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		res.ok[i] = rec.Code == http.StatusOK && want[i] != nil && bytes.Equal(rec.Body.Bytes(), want[i])
	}
	return res
}

// expectedPlaces computes every query's expected body on vsim, in
// parallel; a query the engine cannot answer gets nil.
func expectedPlaces(vsim *core.Simulator, reqs []placeReq) [][]byte {
	want := make([][]byte, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if b, err := expectedPlace(vsim, reqs[i]); err == nil {
					want[i] = b
				}
			}
		}()
	}
	wg.Wait()
	return want
}

// expectedPlace is the body the daemon must answer for q: the scheduler's
// placement and Study.EvaluateMix's metrics, encoded as the daemon encodes.
func expectedPlace(vsim *core.Simulator, q placeReq) ([]byte, error) {
	placement, err := sched.Place(q.design, q.mix, vsim.Source())
	if err != nil {
		return nil, err
	}
	res, err := vsim.Study().EvaluateMix(q.design, q.mix)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(server.PlaceResponse{
		Design:         q.design.Name,
		CoreOf:         placement.CoreOf,
		STP:            res.STP,
		ANTT:           res.ANTT,
		Watts:          res.Watts,
		WattsUngated:   res.WattsUngated,
		BusUtilization: res.BusUtilization,
		Solver: server.SolverDiag{
			Iterations: res.Diag.Iterations,
			Residual:   res.Diag.Residual,
			Converged:  res.Diag.Converged,
		},
	})
	return append(b, '\n'), err
}
