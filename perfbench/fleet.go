package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"smtflex/internal/cluster"
	"smtflex/internal/config"
	"smtflex/internal/core"
	"smtflex/internal/memo"
	"smtflex/internal/obs"
	"smtflex/internal/server"
	"smtflex/internal/study"
)

type fleetSettings struct {
	SetupRepeats int `json:"setup_repeats"`
	Workers      int `json:"workers"`
	// EpochColdKeys is how many distinct keys one epoch sweeps cold; epochs,
	// each on a fresh fleet, repeat until the run's seconds are spent.
	EpochColdKeys int `json:"epoch_cold_keys"`
	// ReadsPerWrite is the number of warm re-reads per cold key.
	ReadsPerWrite int       `json:"reads_per_write"`
	BandwidthGBps []float64 `json:"bandwidth_gbps"`
	TimeoutS      float64   `json:"request_timeout_s"`
}

// sweepKey is one /v1/sweep request: design × SMT × kind × bandwidth.
type sweepKey struct {
	design config.Design
	kind   study.Kind
	body   []byte
}

type sweepOp struct {
	key  int
	cold bool
}

// strata are the four (kind, SMT) combinations of a sweep key. Cold keys
// take them in turn, so every seed sends each one equally often and the same
// mix of sweep sizes: 288 cells homogeneous, 24 × mixes heterogeneous.
var strata = []struct {
	kind study.Kind
	smt  bool
}{
	{study.Homogeneous, true}, {study.Heterogeneous, true},
	{study.Homogeneous, false}, {study.Heterogeneous, false},
}

// fleetStream generates the seeded key stream: distinct keys of design ×
// SMT × kind × bandwidth_gbps, each requested cold once, interleaved at
// seeded positions with warm re-reads of keys already swept, ReadsPerWrite
// per cold key. Within a stratum the keys cycle through the nine designs in
// seeded order, each time at a bandwidth the design has not had yet.
func fleetStream(fs fleetSettings, seed int64) ([]sweepKey, []sweepOp) {
	rng := rand.New(rand.NewSource(seed))
	dealt := make([][]sweepKey, len(strata))
	for s, st := range strata {
		designs := config.NineDesigns(st.smt)
		bws := make([][]float64, len(designs))
		for i := range bws {
			bws[i] = append([]float64(nil), fs.BandwidthGBps...)
			rng.Shuffle(len(bws[i]), func(a, b int) { bws[i][a], bws[i][b] = bws[i][b], bws[i][a] })
		}
		for r := range fs.BandwidthGBps {
			for _, i := range rng.Perm(len(designs)) {
				smt, bw := st.smt, bws[i][r]
				body, _ := json.Marshal(server.SweepRequest{Design: designs[i].Name, SMT: &smt, Kind: st.kind.String(), BandwidthGBps: bw})
				dealt[s] = append(dealt[s], sweepKey{design: designs[i].WithBandwidth(bw), kind: st.kind, body: body})
			}
		}
	}
	n := min(len(strata)*len(dealt[0]), max(1, fs.EpochColdKeys))
	keys := make([]sweepKey, n)
	for i := range keys {
		keys[i] = dealt[i%len(strata)][i/len(strata)]
	}
	cold, warm := len(keys), len(keys)*fs.ReadsPerWrite
	var ops []sweepOp
	swept := 0
	for cold+warm > 0 {
		if swept == 0 || (cold > 0 && rng.Intn(cold+warm) < cold) {
			ops = append(ops, sweepOp{key: swept, cold: true})
			swept++
			cold--
			continue
		}
		ops = append(ops, sweepOp{key: rng.Intn(swept)})
		warm--
	}
	return keys, ops
}

// fleetEnv is a coordinator and its workers, each behind server.New on
// loopback, all in this process.
type fleetEnv struct {
	coordSim   *core.Simulator
	workerSims []*core.Simulator
	coord      *cluster.Coordinator
	workers    []*cluster.Worker
	lns        []*listener
}

func (e *fleetEnv) stop() {
	for i := len(e.lns) - 1; i >= 0; i-- {
		e.lns[i].stop()
	}
}

func (e *fleetEnv) url() string { return e.lns[len(e.lns)-1].url }

// fleetProbes are the observers shared by every fleet of a pass: the timing
// middleware around the coordinator and around the workers, and the engine
// histograms of every study.
type fleetProbes struct {
	front, cells *handlerTimer
	hists        engineHists
}

// startFleet loads the profiles into a simulator per daemon and starts the
// workers and the coordinator, then probes the workers.
//
// The coordinator runs without its write-ahead journal. The benchmark may
// write only inside its checkout, which sits on the VM's disk, and there
// every journaled cell pays an fsync: on a 2-core VM, with the journal under
// the checkout a 15 s run managed 28-37 sweeps/s and 0.64-0.85 ms per cold
// cell on one seed, against 83-88 sweeps/s and 0.26-0.29 ms on a
// memory-backed filesystem, so the fleet numbers would measure the disk.
// The journal's own cost is measured instead by the traced run's
// journal.Put probe.
func startFleet(ctx context.Context, rc runConfig, profiles []byte, fp fleetProbes) (*fleetEnv, error) {
	e := &fleetEnv{}
	var urls []string
	for i := 0; i < rc.set.Fleet.Workers; i++ {
		sim, err := loadSim(rc, profiles)
		if err != nil {
			e.stop()
			return nil, err
		}
		w := cluster.NewWorker(sim.Study(), 0)
		srv, err := server.New(server.Config{Sim: sim, ClusterWorker: w, TraceBuffer: -1, Logger: discardLogger})
		if err != nil {
			e.stop()
			return nil, err
		}
		sim.Study().SetEngineHistograms(fp.hists.iters, fp.hists.queue)
		ln, err := serve(fp.cells.wrap(srv.Handler()))
		if err != nil {
			e.stop()
			return nil, err
		}
		e.lns = append(e.lns, ln)
		e.workerSims = append(e.workerSims, sim)
		e.workers = append(e.workers, w)
		urls = append(urls, ln.url)
	}
	sim, err := loadSim(rc, profiles)
	if err != nil {
		e.stop()
		return nil, err
	}
	e.coordSim = sim
	if e.coord, err = cluster.NewCoordinator(sim.Study(), urls, cluster.Options{Logger: discardLogger}); err != nil {
		e.stop()
		return nil, err
	}
	srv, err := server.New(server.Config{Sim: sim, Coordinator: e.coord, TraceBuffer: -1, Logger: discardLogger})
	if err != nil {
		e.stop()
		return nil, err
	}
	sim.Study().SetEngineHistograms(fp.hists.iters, fp.hists.queue)
	ln, err := serve(fp.front.wrap(srv.Handler()))
	if err != nil {
		e.stop()
		return nil, err
	}
	e.lns = append(e.lns, ln)
	e.coord.Probe(ctx)
	for _, w := range e.coord.Workers() {
		if !w.Alive {
			e.stop()
			return nil, fmt.Errorf("worker %s not alive after probe: %s", w.URL, w.LastErr)
		}
	}
	return e, nil
}

// profiled is the outcome of measuring the profiles once for a fleet.
type profiled struct {
	sim       *core.Simulator
	json      []byte
	profileMs []float64
}

// fleetSetup is one fleet-sweep set-up: the profiles are measured once and
// loaded into every simulator of a fresh fleet.
func fleetSetup(ctx context.Context, rc runConfig, fp fleetProbes) (*fleetEnv, profiled, error) {
	p := profiled{sim: rc.newSim()}
	var err error
	if p.profileMs, err = profileAll(ctx, p.sim, nil, 0); err != nil {
		return nil, p, err
	}
	var buf bytes.Buffer
	if err := p.sim.Source().SaveJSON(&buf); err != nil {
		return nil, p, fmt.Errorf("saving profiles: %w", err)
	}
	p.json = buf.Bytes()
	env, err := startFleet(ctx, rc, p.json, fp)
	return env, p, err
}

// runFleet is fleet-sweep: one client in a closed loop sends the seeded key
// stream to a coordinator over two workers. The stream is one epoch; epochs
// repeat, each on a fresh fleet loaded with the same profiles, until the
// run's seconds are spent, and each must answer exactly as the first.
func runFleet(ctx context.Context, rc runConfig) (*outcome, error) {
	fs := rc.set.Fleet
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	client := newClient(1, time.Duration(fs.TimeoutS*float64(time.Second)))
	defer client.CloseIdleConnections()
	fp := fleetProbes{
		front: &handlerTimer{layer: "server", tr: rc.tr, front: true},
		cells: &handlerTimer{layer: "cluster", tr: rc.tr},
		hists: newEngineHists(),
	}

	var (
		env  *fleetEnv
		prof profiled
	)
	setups := make([]float64, fs.SetupRepeats)
	for i := range setups {
		if env != nil {
			env.stop()
		}
		t := time.Now()
		var err error
		if env, prof, err = fleetSetup(ctx, rc, fp); err != nil {
			return nil, err
		}
		setups[i] = seconds(time.Since(t))
	}
	o.e2e["setup_s"] = quantile(setups, 0.5)
	o.close = func() { env.stop() }

	keys, ops := fleetStream(fs, rc.seed)
	cellsOf := map[study.Kind]int{}
	for _, k := range []study.Kind{study.Homogeneous, study.Heterogeneous} {
		_, nMixes, err := env.coordSim.Study().SweepMixes(k)
		if err != nil {
			return nil, err
		}
		cellsOf[k] = nMixes * study.MaxThreads
	}
	cellsNeeded := 0
	for _, k := range keys {
		cellsNeeded += cellsOf[k.kind]
	}
	var (
		first          [][]byte
		firstOK        []bool
		coldCellMs     []float64
		warmMs         []float64
		coldRates      []float64
		coldCPUMs      []float64
		sweepRates     []float64
		steal          time.Duration
		epochs         int
		epochsDiverged int
	)
	coldByKind := map[study.Kind][]float64{}
	phase := startTimed()
	root := rc.tr.begin(rootLayer, "sweeps", 0, rc.tr.group())
	for epochs == 0 || time.Since(phase.start).Seconds() < rc.seconds {
		if epochs > 0 {
			// A fresh fleet, so the epoch's sweeps are cold again.
			env.stop()
			var err error
			if env, err = startFleet(ctx, rc, prof.json, fp); err != nil {
				return nil, err
			}
		}
		bodies := make([][]byte, len(ops))
		okOp := make([]bool, len(ops))
		var cold spent
		coldCells := 0
		t0 := time.Now()
		for i, op := range ops {
			k := keys[op.key]
			g := rc.tr.group()
			sp := rc.tr.begin("loadgen", "sweep", root.id(), g)
			var u0 usage
			if op.cold {
				u0 = readUsage()
			}
			t := time.Now()
			bodies[i], okOp[i] = post(ctx, client, env.url()+"/v1/sweep", k.body, requestID(g, sp.id()))
			lat := millis(time.Since(t))
			sp.end()
			if op.cold {
				cold = cold.add(readUsage().since(u0))
				coldCells += cellsOf[k.kind]
				coldCellMs = append(coldCellMs, lat/float64(cellsOf[k.kind]))
				coldByKind[k.kind] = append(coldByKind[k.kind], lat/float64(cellsOf[k.kind]))
			} else {
				warmMs = append(warmMs, lat)
			}
		}
		coldRates = append(coldRates, float64(coldCells)/cold.wall.Seconds())
		coldCPUMs = append(coldCPUMs, millis(cold.cpu)/float64(coldCells))
		steal += cold.steal
		sweepRates = append(sweepRates, float64(len(ops))/time.Since(t0).Seconds())
		if epochs == 0 {
			first, firstOK = bodies, okOp
		} else {
			for i := range ops {
				if okOp[i] != firstOK[i] || !bytes.Equal(bodies[i], first[i]) {
					epochsDiverged++
					break
				}
			}
		}
		epochs++
	}
	root.end()
	phase.stop(o.e2e, o.layers)

	// Correctness: every response of the first epoch, cold or warm, must
	// equal byte for byte the sweep a solo simulator computes for its key,
	// and every later epoch must answer exactly as the first.
	vsim, err := loadSim(rc, prof.json)
	if err != nil {
		return nil, err
	}
	want := make([][]byte, len(keys))
	for i, k := range keys {
		if want[i], err = expectedSweep(ctx, vsim, k); err != nil {
			return nil, err
		}
	}
	h := sha256.New()
	for i, op := range ops {
		if !firstOK[i] || !bytes.Equal(first[i], want[op.key]) {
			o.failed++
			fmt.Fprintf(h, "%d failed\n", i)
			continue
		}
		h.Write(first[i])
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	o.attempted = epochs * len(ops)
	o.failed = min(o.attempted, o.failed*epochs+epochsDiverged*len(ops))

	// Cold and warm requests are gated apart, so that no gate depends on
	// reads_per_write, a chosen mix: the cold cost is the CPU time per cell
	// of cold requests, median epoch, and the warm latency covers warm
	// reads alone. Cold wall-clock figures are printed, not gated: the
	// cells/s of cold sweeps swung 1927-2550 over four runs on a shared
	// 2-core VM as the hypervisor took CPU time from it.
	o.e2e["cpu_ms_per_op"] = quantile(coldCPUMs, 0.5)
	o.e2e["lat_p50_ms"] = quantile(warmMs, 0.5)
	o.cost = o.e2e["cpu_ms_per_op"]
	o.named = []named{
		{"setup_s", o.e2e["setup_s"], "s"},
		{"cold_cell_cpu_ms", o.e2e["cpu_ms_per_op"], "ms"},
		{"cold_cells_per_s", quantile(coldRates, 0.5), "1/s"},
		{"sweeps_per_s", quantile(sweepRates, 0.5), "req/s"},
		{"cold_cell_ms_p50", quantile(coldCellMs, 0.5), "ms/cell"},
		{"cold_cell_ms_p90", quantile(coldCellMs, 0.9), "ms/cell"},
		{"warm_sweep_p50_ms", o.e2e["lat_p50_ms"], "ms"},
		{"warm_sweep_p95_ms", quantile(warmMs, 0.95), "ms"},
		{"epochs", float64(epochs), "count"},
		{"steal_s", steal.Seconds(), "s"},
		{"cold_sweeps", float64(len(coldCellMs)), "count"},
		{"warm_sweeps", float64(len(warmMs)), "count"},
		{"peak_rss_mb", o.e2e["peak_rss_mb"], "MB"},
	}
	for _, k := range []study.Kind{study.Homogeneous, study.Heterogeneous} {
		o.notes = append(o.notes, fmt.Sprintf("cold %s sweeps: %d of %d cells, per-cell p50 %.3g ms, p90 %.3g ms",
			k, len(coldByKind[k]), cellsOf[k], quantile(coldByKind[k], 0.5), quantile(coldByKind[k], 0.9)))
	}

	// The ledger's engine counters are the last epoch's; the middleware's
	// cover every epoch.
	addCounters(o.layers, prof.sim.Source().CacheCounters())
	profilerLedger(o.layers, prof.profileMs)
	fleetLedger(o.layers, env, fp, cellsNeeded)
	var replay []cellRef
	for _, k := range keys {
		mixes, _, err := env.coordSim.Study().SweepMixes(k.kind)
		if err != nil {
			return nil, err
		}
		for n := 1; n <= study.MaxThreads; n++ {
			for _, m := range mixes[n] {
				replay = append(replay, cellRef{design: k.design, mix: m})
			}
		}
	}
	o.probe = probeInput{sim: env.coordSim, replay: replay,
		journalPayloads: func(ctx context.Context, n int) ([]journalRecord, error) {
			return cellPayloads(ctx, env, keys, n)
		}}
	return o, nil
}

// cellPayloads evaluates the first n cells of the keys' sweeps on the first
// worker and returns them as the coordinator would journal them: the cell's
// content address and its wire response.
func cellPayloads(ctx context.Context, env *fleetEnv, keys []sweepKey, n int) ([]journalRecord, error) {
	st := env.coordSim.Study()
	var recs []journalRecord
	for _, k := range keys {
		mixes, _, err := st.SweepMixes(k.kind)
		if err != nil {
			return nil, err
		}
		for t := 1; t <= study.MaxThreads; t++ {
			for _, m := range mixes[t] {
				if len(recs) == n {
					return recs, nil
				}
				key := memo.KeyHash(st.CellKey(k.design, k.kind, t, m))
				resp, err := env.workers[0].Evaluate(ctx, cluster.CellRequest{
					Key: key, Fingerprint: st.Fingerprint(),
					Design: k.design.Name, SMT: k.design.SMTEnabled, BandwidthGBps: k.design.MemBandwidthGBps,
					Kind: k.kind.String(), N: t, MixID: m.ID, Programs: m.Programs,
				})
				if err != nil {
					return nil, err
				}
				payload, err := json.Marshal(resp)
				if err != nil {
					return nil, err
				}
				recs = append(recs, journalRecord{key: key, payload: payload})
			}
		}
	}
	return recs, nil
}

// expectedSweep is the body a solo daemon answers for k: Study.SweepDesign's
// sweep in the daemon's wire form and encoding.
func expectedSweep(ctx context.Context, vsim *core.Simulator, k sweepKey) ([]byte, error) {
	sw, err := vsim.Study().SweepDesign(ctx, k.design, k.kind)
	if err != nil {
		return nil, err
	}
	resp := server.SweepResponse{
		Design:   k.design.Name,
		Kind:     k.kind.String(),
		STP:      append([]float64(nil), sw.STP[:]...),
		ANTT:     append([]float64(nil), sw.ANTT[:]...),
		Watts:    append([]float64(nil), sw.Watts[:]...),
		MixNames: append([]string(nil), sw.MixNames...),
		ByMix:    make([][]float64, len(sw.ByMix)),
		Solver: server.SolverDiag{
			Iterations: sw.SolverIterations,
			Residual:   sw.SolverResidual,
			Converged:  sw.SolverConverged,
		},
	}
	for i := range sw.ByMix {
		resp.ByMix[i] = append([]float64(nil), sw.ByMix[i][:]...)
	}
	b, err := json.Marshal(resp)
	return append(b, '\n'), err
}

// fleetLedger reads the fleet's counters from outside: cache counters of
// every engine, the coordinator's state and dispatch statistics, and the
// middleware around the coordinator and the workers.
func fleetLedger(layers map[string]float64, env *fleetEnv, fp fleetProbes, cellsNeeded int) {
	addCounters(layers, env.coordSim.Study().CacheCounters())
	addCounters(layers, env.coord.CacheCounters())
	evals := env.coordSim.Study().Evaluations()
	for i, sim := range env.workerSims {
		addCounters(layers, sim.Study().CacheCounters())
		addCounters(layers, env.workers[i].CacheCounters())
		evals += sim.Study().Evaluations()
	}
	layers["study.cells"] = float64(evals)
	layers["study.sweeps"] = layers["memo.sweeps.misses"] + layers["memo.fleet-sweeps.misses"]
	fp.hists.report(layers)
	serverLedger(layers, fp.front)

	st := env.coord.State()
	layers["cluster.dispatched"] = float64(st.Dispatched)
	layers["cluster.hedges"] = float64(st.Hedges)
	layers["cluster.retries"] = float64(st.Retries)
	layers["cluster.fallbacks"] = float64(st.Fallbacks)
	layers["cluster.integrity_failures"] = float64(st.IntegrityFailures)
	layers["cluster.steals"] = float64(st.Steals)

	var lat obs.HistogramSnapshot
	var wire int64
	for _, ds := range env.coord.DispatchStats() {
		lat = mergeHist(lat, ds.Latency)
		wire += ds.TxBytes + ds.RxBytes
	}
	layers["cluster.dispatch_ms_p50"] = lat.Quantile(0.50) * 1000
	layers["cluster.dispatch_ms_p99"] = lat.Quantile(0.99) * 1000
	if cellsNeeded > 0 {
		layers["cluster.dispatch_per_cell"] = float64(st.Dispatched) / float64(cellsNeeded)
		layers["cluster.wire_bytes_per_cell"] = float64(wire) / float64(cellsNeeded)
	}
	layers["cluster.worker_cell_ms_p50"] = quantile(fp.cells.busy(), 0.5)
}

// mergeHist adds two snapshots over the same bucket bounds.
func mergeHist(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	if a.Count == 0 && len(a.Cumulative) == 0 {
		return obs.HistogramSnapshot{Bounds: b.Bounds, Cumulative: append([]int64(nil), b.Cumulative...), Count: b.Count, Sum: b.Sum}
	}
	for i := range a.Cumulative {
		a.Cumulative[i] += b.Cumulative[i]
	}
	a.Count += b.Count
	a.Sum += b.Sum
	return a
}
