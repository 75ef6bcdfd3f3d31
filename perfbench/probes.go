package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"smtflex/internal/cache"
	"smtflex/internal/config"
	"smtflex/internal/contention"
	"smtflex/internal/core"
	"smtflex/internal/cpu"
	"smtflex/internal/interval"
	"smtflex/internal/journal"
	"smtflex/internal/multicore"
	"smtflex/internal/sched"
	"smtflex/internal/study"
	"smtflex/internal/trace"
	"smtflex/internal/workload"
)

// Probe sizes: long enough per timer read that clock overhead vanishes,
// short enough that all probes of a traced run take a few seconds.
const (
	traceUopsPerSpec     = 400_000
	multicoreUopsPerRun  = 20_000
	cacheUopsPerSpec     = 300_000
	intervalRounds       = 200
	assembleRounds       = 20
	assembleSweeps       = 4
	journalProbeMaxPuts  = 256
	probeGeneratorSeed   = 1
	probeLLCShareDivisor = 4
)

// cellRef is one (design, mix) evaluation a workload performed.
type cellRef struct {
	design config.Design
	mix    workload.Mix
}

type sweepRef struct {
	design config.Design
	kind   study.Kind
}

// probeInput is what the probes replay after the traced pass.
type probeInput struct {
	// sim is the workload's engine, holding all 36 profiles.
	sim *core.Simulator
	// replay lists the evaluations the sched and contention probes repeat.
	replay []cellRef
	// journalPayloads, for workloads with a fleet, returns up to n cells as
	// the coordinator would journal them, for the journal.Put probe.
	journalPayloads func(ctx context.Context, n int) ([]journalRecord, error)
}

// journalRecord is one journal entry: a cell's content address and payload.
type journalRecord struct {
	key     string
	payload []byte
}

// studyProbeKeys are the nine SMT designs in both workload kinds.
func studyProbeKeys() []sweepRef {
	var keys []sweepRef
	for _, k := range []study.Kind{study.Homogeneous, study.Heterogeneous} {
		for _, d := range config.NineDesigns(true) {
			keys = append(keys, sweepRef{d, k})
		}
	}
	return keys
}

// runProbes measures each probed layer's unit cost after the traced pass,
// under probe spans, and returns the complete ledger. A layer the workload
// never reaches reports zero for its counters.
func runProbes(ctx context.Context, rc runConfig, o *outcome) (map[string]float64, error) {
	layers := map[string]float64{}
	for k, v := range o.layers {
		layers[k] = v
	}
	tr := rc.tr
	root := tr.begin(probeLayer, "probes", 0, tr.group())
	defer root.end()
	steps := []func() error{
		func() error { return probeTrace(layers, tr, root.id()) },
		func() error { return probeMulticore(layers, tr, root.id()) },
		func() error { return probeCache(layers, tr, root.id()) },
		func() error { return probeInterval(layers, tr, root.id(), o.probe.sim) },
		func() error { return probeReplay(ctx, layers, tr, root.id(), o.probe) },
		func() error { return probeStudy(ctx, rc, layers, root.id(), o.probe) },
		func() error { return probeJournal(ctx, layers, tr, root.id(), o.probe.journalPayloads, rc.workDir) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	finishMemo(layers)
	for _, d := range perLayer {
		if _, ok := layers[d.name]; !ok {
			layers[d.name] = 0
		}
	}
	return layers, nil
}

// probeTrace times trace generation alone over every benchmark's spec.
func probeTrace(layers map[string]float64, tr *tracer, parent int64) error {
	var sink uint64
	var n uint64
	var busy time.Duration
	for _, spec := range workload.Benchmarks() {
		g, err := trace.NewGenerator(spec, probeGeneratorSeed)
		if err != nil {
			return err
		}
		sp := tr.begin("trace", "generate "+spec.Name, parent, tr.group())
		t := time.Now()
		for i := 0; i < traceUopsPerSpec; i++ {
			sink += g.Next().Addr
		}
		busy += time.Since(t)
		sp.end()
		n += traceUopsPerSpec
	}
	layers["trace.uops"] = float64(n)
	layers["trace.ns_per_uop"] = float64(busy.Nanoseconds()) / float64(n)
	_ = sink
	return nil
}

// profilingDesign is the single-core chip the profiler measures a core type
// on.
func profilingDesign(cc config.Core) config.Design {
	d := config.Design{Name: "profiling", MemBandwidthGBps: 8, Cores: []config.Core{cc}}
	llc := config.LLCConfig()
	d.LLC.SizeBytes, d.LLC.Assoc, d.LLC.LatencyCycles = llc.SizeBytes, llc.Assoc, llc.LatencyCycles
	return d
}

// probeMulticore times the cycle engine on the profiler's single-core
// design for each core type and benchmark, per retired µop summed over
// threads (trace generation included, as in profiling).
func probeMulticore(layers map[string]float64, tr *tracer, parent int64) error {
	var retired uint64
	var busy time.Duration
	for _, ct := range coreTypes {
		d := profilingDesign(config.CoreOfType(ct))
		for _, spec := range workload.Benchmarks() {
			g, err := trace.NewGenerator(spec, probeGeneratorSeed)
			if err != nil {
				return err
			}
			sp := tr.begin("multicore", "run "+spec.Name+"/"+ct.String(), parent, tr.group())
			t := time.Now()
			chip, err := multicore.New(d, cpu.Ideal{})
			if err != nil {
				return err
			}
			if _, err := chip.AttachThread(0, g); err != nil {
				return err
			}
			for _, st := range chip.Run(multicoreUopsPerRun) {
				retired += st.Uops
			}
			busy += time.Since(t)
			sp.end()
		}
	}
	layers["multicore.uops"] = float64(retired)
	layers["multicore.ns_per_uop"] = float64(busy.Nanoseconds()) / float64(retired)
	return nil
}

// probeCache times the stack-distance profiler over each benchmark's data
// address stream, generated beforehand so the timing covers only Touch and
// the miss-ratio curve.
func probeCache(layers map[string]float64, tr *tracer, parent int64) error {
	var caps []int
	for b := 4 << 10; b <= 128<<20; b *= 2 {
		caps = append(caps, b/64)
	}
	var touches uint64
	var busy time.Duration
	for _, spec := range workload.Benchmarks() {
		g, err := trace.NewGenerator(spec, probeGeneratorSeed)
		if err != nil {
			return err
		}
		var blocks []uint64
		for i := 0; i < cacheUopsPerSpec; i++ {
			if u := g.Next(); u.Class.IsMem() {
				blocks = append(blocks, cache.BlockAddr(u.Addr))
			}
		}
		sp := tr.begin("cache", "stack "+spec.Name, parent, tr.group())
		t := time.Now()
		p := cache.NewStackProfiler(0)
		snap := p.Checkpoint()
		for _, b := range blocks {
			p.Touch(b)
		}
		_ = p.MissRatioCurve(snap, caps)
		busy += time.Since(t)
		sp.end()
		touches += uint64(len(blocks))
	}
	layers["cache.touches"] = float64(touches)
	layers["cache.ns_per_touch"] = float64(busy.Nanoseconds()) / float64(touches)
	return nil
}

// probeInterval times interval.Profile.Evaluate on the workload's 36
// profiles at every ROB partition their core type's SMT levels produce.
func probeInterval(layers map[string]float64, tr *tracer, parent int64, sim *core.Simulator) error {
	type point struct {
		p  *interval.Profile
		cc config.Core
		w  int
		sh interval.Shares
	}
	var pts []point
	for _, ct := range coreTypes {
		cc := config.CoreOfType(ct)
		for _, spec := range workload.Benchmarks() {
			p, err := sim.Source().Profile(spec, ct)
			if err != nil {
				return err
			}
			for n := 1; n <= cc.SMTContexts; n++ {
				pts = append(pts, point{p, cc, interval.Partition(cc, n), interval.Shares{
					L1I: float64(cc.L1I.SizeBytes) / float64(n), L1D: float64(cc.L1D.SizeBytes) / float64(n),
					L2: float64(cc.L2.SizeBytes) / float64(n), LLC: float64(config.LLCConfig().SizeBytes) / probeLLCShareDivisor,
					MemLatencyCycles: 300,
				}})
			}
		}
	}
	var sink float64
	sp := tr.begin("interval", "evaluate", parent, tr.group())
	t := time.Now()
	for r := 0; r < intervalRounds; r++ {
		for _, x := range pts {
			sink += x.p.Evaluate(x.cc, x.w, x.sh).Total()
		}
	}
	busy := time.Since(t)
	sp.end()
	_ = sink
	layers["interval.ns_per_eval"] = float64(busy.Nanoseconds()) / float64(intervalRounds*len(pts))
	return nil
}

// probeReplay repeats the workload's evaluations through the scheduler and
// the contention solver, timing each call.
func probeReplay(ctx context.Context, layers map[string]float64, tr *tracer, parent int64, in probeInput) error {
	solver := contention.NewSolver()
	placeUs := make([]float64, 0, len(in.replay))
	solveUs := make([]float64, 0, len(in.replay))
	notConverged := 0
	sp := tr.begin("sched", "replay", parent, tr.group())
	for _, c := range in.replay {
		t := time.Now()
		p, err := sched.PlaceCtx(ctx, c.design, c.mix, in.sim.Source())
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("replaying placement: %w", err)
		}
		res, err := solver.SolveModel(p, contention.Model{})
		t2 := time.Now()
		switch {
		case errors.Is(err, contention.ErrNotConverged):
			notConverged++
		case err != nil:
			return fmt.Errorf("replaying solve: %w", err)
		case !res.Diag.Converged:
			notConverged++
		}
		placeUs = append(placeUs, float64(t1.Sub(t).Nanoseconds())/1e3)
		solveUs = append(solveUs, float64(t2.Sub(t1).Nanoseconds())/1e3)
	}
	sp.end()
	layers["sched.places"] = float64(len(placeUs))
	layers["sched.us_per_place_p50"] = quantile(placeUs, 0.5)
	layers["sched.us_per_place_p99"] = quantile(placeUs, 0.99)
	layers["contention.solves"] = float64(len(solveUs))
	layers["contention.us_per_solve_p50"] = quantile(solveUs, 0.5)
	layers["contention.us_per_solve_p99"] = quantile(solveUs, 0.99)
	layers["contention.not_converged"] = float64(notConverged)
	return nil
}

// probeStudy sweeps the probe keys on a fresh engine loaded with the
// workload's profiles, then times study.AssembleSweep on evaluated grids.
func probeStudy(ctx context.Context, rc runConfig, layers map[string]float64, parent int64, in probeInput) error {
	fresh, err := cloneSim(rc, in.sim)
	if err != nil {
		return err
	}
	st := fresh.Study()
	tr := rc.tr
	var sweepMs []float64
	keys := studyProbeKeys()
	for _, k := range keys {
		sp := tr.begin("study", "sweep "+k.design.Name+"/"+k.kind.String(), parent, tr.group())
		t := time.Now()
		if _, err := st.SweepDesign(ctx, k.design, k.kind); err != nil {
			return err
		}
		sweepMs = append(sweepMs, millis(time.Since(t)))
		sp.end()
	}
	layers["study.sweep_ms_p50"] = quantile(sweepMs, 0.5)

	var assembleUs []float64
	for _, k := range keys[:assembleSweeps] {
		mixes, nMixes, err := st.SweepMixes(k.kind)
		if err != nil {
			return err
		}
		results := make([][]study.MixResult, study.MaxThreads)
		for n := 1; n <= study.MaxThreads; n++ {
			results[n-1] = make([]study.MixResult, nMixes)
			for mi := range results[n-1] {
				if results[n-1][mi], err = st.EvaluateMixCtx(ctx, k.design, mixes[n][mi]); err != nil {
					return err
				}
			}
		}
		sp := tr.begin("study", "assemble "+k.design.Name+"/"+k.kind.String(), parent, tr.group())
		for r := 0; r < assembleRounds; r++ {
			t := time.Now()
			if _, err := study.AssembleSweep(k.design, k.kind, mixes, results); err != nil {
				return err
			}
			assembleUs = append(assembleUs, float64(time.Since(t).Nanoseconds())/1e3)
		}
		sp.end()
	}
	layers["study.assemble_us_p50"] = quantile(assembleUs, 0.5)
	return nil
}

// probeJournal writes cell payloads of the workload's own sweeps into a
// fresh journal under the checkout, timing each crash-safe Put: a temporary
// file, an fsync on the checkout's disk and a rename, so the time includes
// that disk's fsync.
func probeJournal(ctx context.Context, layers map[string]float64, tr *tracer, parent int64,
	payloads func(context.Context, int) ([]journalRecord, error), workDir string) error {
	if payloads == nil {
		return nil
	}
	recs, err := payloads(ctx, journalProbeMaxPuts)
	if err != nil {
		return err
	}
	pj, _, err := journal.Open(filepath.Join(workDir, "journal-probe"), "probe")
	if err != nil {
		return err
	}
	var putUs []float64
	sp := tr.begin("journal", "put", parent, tr.group())
	for _, r := range recs {
		t := time.Now()
		if err := pj.Put(r.key, r.payload); err != nil {
			return err
		}
		putUs = append(putUs, float64(time.Since(t).Nanoseconds())/1e3)
	}
	sp.end()
	layers["journal.put_us_p50"] = quantile(putUs, 0.5)
	return nil
}
