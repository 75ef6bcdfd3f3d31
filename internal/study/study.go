// Package study implements the paper's experiments: thread-count sweeps of
// the nine power-equivalent designs for multi-program workloads, aggregation
// under active-thread-count distributions, multi-threaded application
// studies, the ideal dynamic multi-core, and the power/energy analyses. One
// driver per figure regenerates the corresponding result table.
package study

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"smtflex/internal/config"
	"smtflex/internal/contention"
	"smtflex/internal/dist"
	"smtflex/internal/interval"
	"smtflex/internal/memo"
	"smtflex/internal/metrics"
	"smtflex/internal/obs"
	"smtflex/internal/parallel"
	"smtflex/internal/power"
	"smtflex/internal/profiler"
	"smtflex/internal/sched"
	"smtflex/internal/workload"
)

// Kind selects the multi-program workload class.
type Kind int

const (
	// Homogeneous workloads are multiple copies of one benchmark.
	Homogeneous Kind = iota
	// Heterogeneous workloads are balanced random benchmark mixes.
	Heterogeneous
)

// String returns "homogeneous" or "heterogeneous".
func (k Kind) String() string {
	if k == Homogeneous {
		return "homogeneous"
	}
	return "heterogeneous"
}

// ErrBadKind reports a workload kind name ParseKind does not know.
var ErrBadKind = errors.New("study: unknown kind")

// ParseKind is the inverse of Kind.String; the empty name selects
// Homogeneous.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "", "homogeneous":
		return Homogeneous, nil
	case "heterogeneous":
		return Heterogeneous, nil
	default:
		return 0, fmt.Errorf("%w %q (want homogeneous or heterogeneous)", ErrBadKind, name)
	}
}

// MaxThreads is the study's maximum active thread count.
const MaxThreads = dist.MaxThreads

// solverPool hands each pool worker a reusable contention.Solver, so the
// tens of thousands of solves behind a sweep allocate scratch once per
// worker instead of once per solve. Results alias the solver's scratch;
// EvaluateMixCtx copies everything it keeps before the solver is returned.
var solverPool = sync.Pool{New: func() any { return contention.NewSolver() }}

// Study runs experiments, caching profiles, solo rates and design sweeps so
// every figure reuses the same underlying data, exactly as the paper derives
// all figures from one simulation campaign.
type Study struct {
	// Src supplies benchmark profiles (cycle-engine measurements).
	Src *profiler.Source
	// MixesPerCount is the number of random mixes per thread count for
	// heterogeneous workloads (the paper uses 12).
	MixesPerCount int
	// Seed drives mix construction.
	Seed int64
	// Model selects the contention solver's mechanisms; the zero value is
	// the calibrated default. Ablation studies build Studies with
	// alternative models that share the same profile source.
	Model contention.Model
	// Parallelism bounds the experiment engine's worker pool; zero (the
	// default) means GOMAXPROCS. One forces the serial engine.
	Parallelism int

	// solo caches isolated big-core rates. The rates are model-independent,
	// so withModel-derived ablation studies share this cache by pointer.
	solo *memo.Cache[string, float64]
	// sweeps caches design sweeps; keys include the model, so derived
	// studies share this cache too.
	sweeps *memo.Cache[string, *Sweep]
	// parallelRuns caches multi-threaded application runs (see
	// evaluateParallel); like solo rates they are model-independent.
	parallelRuns *memo.Cache[string, parallel.Result]

	// solverIters and poolQueue, when non-nil, receive engine-level
	// observations — contention-solver iteration counts and pool queue waits
	// in seconds — behind the daemon's metrics. withModel-derived ablation
	// studies share them by pointer, like the caches.
	solverIters *obs.Histogram
	poolQueue   *obs.Histogram

	// soloComputes, sweepComputes and parallelComputes count cache-miss
	// computations performed by this Study — test instrumentation for the
	// singleflight and sharing guarantees.
	soloComputes     atomic.Int64
	sweepComputes    atomic.Int64
	parallelComputes atomic.Int64
	// evals counts EvaluateMix calls: the unit of engine work the pool hands
	// out, and the observable for cancellation tests (a cancelled sweep's
	// count stops rising and stays below the full grid). withModel-derived
	// ablation studies share it by pointer, so their cells count too.
	evals *atomic.Int64
}

// Evaluations returns the number of mix evaluations this Study has run. It
// is the pool-level progress observable used by the server's metrics and by
// cancellation tests.
func (s *Study) Evaluations() int64 { return s.evals.Load() }

// BoundCaches caps the sweep cache at maxSweeps entries with LRU eviction,
// for long-running servers whose request history would otherwise grow the
// cache without limit. The solo-rate and profile caches are intrinsically
// bounded by the benchmark suite and stay unbounded. Zero restores the
// batch default (keep everything).
func (s *Study) BoundCaches(maxSweeps int) { s.sweeps.Bound(maxSweeps) }

// New returns a Study with the paper's defaults.
func New(src *profiler.Source) *Study {
	return &Study{
		Src: src, MixesPerCount: 12, Seed: 20140301,
		solo:         &memo.Cache[string, float64]{Name: "solo"},
		sweeps:       &memo.Cache[string, *Sweep]{Name: "sweeps"},
		parallelRuns: &memo.Cache[string, parallel.Result]{Name: "parallel"},
		evals:        new(atomic.Int64),
	}
}

// SetEngineHistograms installs the daemon's engine-level histograms: solver
// iteration counts per solve and pool queue waits in seconds. Nil disables a
// series. Call before concurrent use; derived ablation studies inherit them.
func (s *Study) SetEngineHistograms(solverIters, poolQueue *obs.Histogram) {
	s.solverIters = solverIters
	s.poolQueue = poolQueue
}

// CacheCounters snapshots every engine cache this Study reaches — its own
// solo-rate and sweep caches plus the profile source's — for the daemon's
// per-cache metrics.
func (s *Study) CacheCounters() []memo.Counters {
	out := []memo.Counters{s.solo.Counters(), s.sweeps.Counters()}
	if s.Src != nil {
		out = append(out, s.Src.CacheCounters()...)
	}
	return out
}

// SoloRate returns a benchmark's isolated progress rate (µops/ns) on the big
// core — the normalization reference for STP and ANTT. Concurrent calls for
// the same benchmark compute the rate once.
func (s *Study) SoloRate(bench string) (float64, error) {
	return s.SoloRateCtx(context.Background(), bench)
}

// SoloRateCtx is SoloRate with tracing: the cache lookup and — on a miss —
// the profiling and solve behind it are recorded as spans when ctx carries
// an active trace. The rate returned is identical to SoloRate's.
func (s *Study) SoloRateCtx(ctx context.Context, bench string) (float64, error) {
	return s.solo.GetTraced(ctx, bench, func(ctx context.Context) (float64, error) {
		s.soloComputes.Add(1)
		spec, err := workload.ByName(bench)
		if err != nil {
			return 0, err
		}
		d := config.NewDesign("solo-big", 1, 0, 0, false)
		prof, err := s.Src.ProfileCtx(ctx, spec, config.Big)
		if err != nil {
			return 0, err
		}
		p := contention.Placement{
			Design:   d,
			CoreOf:   []int{0},
			Profiles: []*interval.Profile{prof},
		}
		res, err := contention.SolveCtx(ctx, p)
		if err != nil {
			return 0, err
		}
		return res.Threads[0].UopsPerNs, nil
	})
}

// MixThread is the per-thread detail of one mix evaluation: the program, the
// core the scheduler placed it on, its solved rates, and the contention
// solver's CPI-stack decomposition — the paper's per-thread view of where
// cycles go on a given design.
type MixThread struct {
	// Program is the benchmark the thread runs.
	Program string
	// Core is the core index the scheduler placed the thread on.
	Core int
	// IPC is µops per core cycle while running (after SMT width sharing).
	IPC float64
	// UopsPerNs is the thread's absolute progress rate.
	UopsPerNs float64
	// Stack is the solved CPI decomposition.
	Stack interval.CPIStack
}

// MixResult is the evaluation of one mix on one design.
type MixResult struct {
	// STP is the system throughput (weighted speedup vs big-core isolated).
	STP float64
	// ANTT is the average normalized turnaround time.
	ANTT float64
	// Watts is chip power with idle cores power gated.
	Watts float64
	// WattsUngated is chip power without power gating.
	WattsUngated float64
	// BusUtilization is off-chip bus utilization in [0,1].
	BusUtilization float64
	// Threads is the per-thread placement and CPI-stack detail, indexed like
	// the mix's programs.
	Threads []MixThread
	// Diag is the contention solver's convergence diagnostics for this mix.
	Diag contention.Diagnostics
}

// EvaluateMix places and solves one mix on a design and computes metrics.
func (s *Study) EvaluateMix(d config.Design, mix workload.Mix) (MixResult, error) {
	return s.EvaluateMixCtx(context.Background(), d, mix)
}

// EvaluateMixCtx is EvaluateMix with tracing: the placement, contention
// solve and solo-rate lookups are recorded as spans when ctx carries an
// active trace, and the solve's iteration count feeds the solver histogram.
// The result is identical to EvaluateMix's.
func (s *Study) EvaluateMixCtx(ctx context.Context, d config.Design, mix workload.Mix) (MixResult, error) {
	s.evals.Add(1)
	placement, err := sched.PlaceCtx(ctx, d, mix, s.Src)
	if err != nil {
		return MixResult{}, err
	}
	solver := solverPool.Get().(*contention.Solver)
	// The solver goes back to the pool only when this evaluation is done:
	// solved.Threads and solved.CoreUtilization alias its scratch, and both
	// are read (and copied) below.
	defer solverPool.Put(solver)
	solved, err := solver.SolveModelCtx(ctx, placement, s.Model)
	if err != nil {
		return MixResult{}, err
	}
	s.solverIters.Observe(float64(solved.Diag.Iterations))

	n := mix.NumThreads()
	rates := make([]float64, n)
	soloRates := make([]float64, n)
	threads := make([]MixThread, n)
	for i := 0; i < n; i++ {
		tr := solved.Threads[i]
		rates[i] = tr.UopsPerNs
		threads[i] = MixThread{
			Program:   mix.Programs[i],
			Core:      placement.CoreOf[i],
			IPC:       tr.IPC,
			UopsPerNs: tr.UopsPerNs,
			Stack:     tr.Stack,
		}
		soloRates[i], err = s.SoloRateCtx(ctx, mix.Programs[i])
		if err != nil {
			return MixResult{}, err
		}
	}
	stp, err := metrics.STP(rates, soloRates)
	if err != nil {
		return MixResult{}, err
	}
	antt, err := metrics.ANTT(rates, soloRates)
	if err != nil {
		return MixResult{}, err
	}

	active := make([]bool, d.NumCores())
	for _, c := range placement.CoreOf {
		active[c] = true
	}
	st := power.ChipState{Design: d, CoreUtilization: solved.CoreUtilization, CoreActive: active, Gating: true}
	watts, err := power.ChipWatts(st)
	if err != nil {
		return MixResult{}, err
	}
	st.Gating = false
	ungated, err := power.ChipWatts(st)
	if err != nil {
		return MixResult{}, err
	}
	return MixResult{STP: stp, ANTT: antt, Watts: watts, WattsUngated: ungated,
		BusUtilization: solved.BusUtilization, Threads: threads, Diag: solved.Diag}, nil
}

// Sweep holds, for one design and workload kind, the per-thread-count
// averages and the per-mix detail.
type Sweep struct {
	Design config.Design
	Kind   Kind
	// STP[n-1] is the harmonic mean STP at n threads across mixes.
	STP [MaxThreads]float64
	// ANTT[n-1] is the arithmetic mean ANTT.
	ANTT [MaxThreads]float64
	// Watts[n-1] is the mean power with power gating.
	Watts [MaxThreads]float64
	// MixNames lists the mixes (for Homogeneous, the benchmark names).
	MixNames []string
	// ByMix[m][n-1] is the STP of mix m at n threads.
	ByMix [][MaxThreads]float64
	// MeanStack[n-1] is the mean per-thread CPI stack at n threads, averaged
	// component-wise over every thread of every mix — the sweep-level view of
	// where cycles go as the design fills up with threads.
	MeanStack [MaxThreads]interval.CPIStack
	// SolverIterations is the largest iteration count any evaluation's
	// contention solve needed, and SolverResidual the largest final residual —
	// the sweep-level view of the solver's convergence diagnostics.
	SolverIterations int
	SolverResidual   float64
	// SolverConverged reports whether every evaluation's solve terminated by
	// convergence rather than by exhausting its iteration budget.
	SolverConverged bool
}

// sweepKey identifies a sweep in the cache, including the model choices in
// canonical form: a model that spells out a default solves identically, so
// it shares the default's sweeps.
func (s *Study) sweepKey(d config.Design, k Kind) string {
	return fmt.Sprintf("%s|smt=%t|bw=%g|%s|%+v", d.Name, d.SMTEnabled, d.MemBandwidthGBps, k, s.Model.Canonical())
}

// mixesAt returns the workloads evaluated at thread count n.
func (s *Study) mixesAt(k Kind, n int) []workload.Mix {
	if k == Homogeneous {
		return workload.HomogeneousMixes(n)
	}
	return workload.HeterogeneousMixes(n, s.MixesPerCount, s.Seed)
}

// SweepDesign evaluates the design across 1..24 threads for the workload
// kind, caching the result. Concurrent calls for the same (design, kind,
// model) coalesce onto one computation — including calls from distinct
// server requests — and each caller waits only as long as its own ctx
// allows: when every caller interested in the key has abandoned it, the
// shared computation is cancelled and uncached so a later request retries.
// The evaluation itself fans every (thread count, mix) pair over the worker
// pool and assembles the result in index order, so the sweep is bit-for-bit
// identical to the serial engine's.
func (s *Study) SweepDesign(ctx context.Context, d config.Design, k Kind) (*Sweep, error) {
	return s.SweepDesignWith(ctx, d, k, s.computeSweep)
}

// SweepDesignWith is SweepDesign with the computation behind a miss supplied
// by the caller, so every sweep a process holds lives in this one cache,
// however it was computed: the cluster coordinator passes its fleet
// dispatch. compute must give SweepDesign's bits (feed EvaluateMixCtx
// results to AssembleSweep), and finds the leader's progress hook in its
// context. Coalesced callers share whichever compute the leader supplied.
func (s *Study) SweepDesignWith(ctx context.Context, d config.Design, k Kind, compute func(context.Context, config.Design, Kind) (*Sweep, error)) (*Sweep, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The cache detaches the compute context from the caller's, so a
	// context-carried progress hook must be captured here and re-attached
	// inside the closure. When concurrent callers coalesce, only the hook of
	// the caller whose closure runs (the computation leader) fires.
	prog := progressFrom(ctx)
	return s.sweeps.GetCtx(ctx, s.sweepKey(d, k), func(cctx context.Context) (*Sweep, error) {
		s.sweepComputes.Add(1)
		return compute(WithProgress(cctx, prog), d, k)
	})
}

// computeSweep does the actual evaluation behind SweepDesign's cache: it
// materializes the cell grid, fans the cells over the worker pool, and hands
// the per-cell results to AssembleSweep — the same decomposition and
// reassembly the cluster coordinator uses, so distributed sweeps reduce to
// this exact code.
func (s *Study) computeSweep(ctx context.Context, d config.Design, k Kind) (*Sweep, error) {
	ctx, sp := obs.StartSpan(ctx, "study.sweep")
	sp.SetAttr("design", d.Name)
	sp.SetAttr("kind", k.String())
	defer sp.End()

	// Mix construction is cheap and deterministic; materialize the whole
	// grid up front so the workers only evaluate.
	mixes, nMixes, err := s.SweepMixes(k)
	if err != nil {
		return nil, err
	}

	results := make([][]MixResult, MaxThreads)
	for i := range results {
		results[i] = make([]MixResult, nMixes)
	}
	err = runIndexed(ctx, s.workers(), MaxThreads*nMixes, s.poolQueue, func(ctx context.Context, i int) error {
		n, mi := i/nMixes+1, i%nMixes
		r, err := s.EvaluateMixCtx(ctx, d, mixes[n][mi])
		if err != nil {
			return fmt.Errorf("study: %s on %s: %w", mixes[n][mi].ID, d.Name, err)
		}
		results[n-1][mi] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return AssembleSweep(d, k, mixes, results)
}

// DistributionSTP aggregates a sweep's STP under a thread-count distribution
// using the weighted harmonic mean (STP is a rate metric).
func DistributionSTP(sw *Sweep, d dist.Distribution) (float64, error) {
	weights := make([]float64, MaxThreads)
	for n := 1; n <= MaxThreads; n++ {
		weights[n-1] = d.Weight(n)
	}
	return metrics.WeightedHarmonicMean(sw.STP[:], weights)
}

// DistributionWatts aggregates power under a distribution (arithmetic,
// power is additive over time).
func DistributionWatts(sw *Sweep, d dist.Distribution) (float64, error) {
	weights := make([]float64, MaxThreads)
	for n := 1; n <= MaxThreads; n++ {
		weights[n-1] = d.Weight(n)
	}
	return metrics.WeightedAverage(sw.Watts[:], weights)
}
