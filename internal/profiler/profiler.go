// Package profiler measures interval.Profile characterizations by running
// the cycle engine on a benchmark in isolation with successively idealized
// machine components, plus a single stack-distance pass over the benchmark's
// address streams for the capacity curves.
//
// The decomposition: run A perfects branches, I-cache and data hierarchy to
// expose the base CPI (repeated at every ROB partition size the design space
// can produce); run B restores the real branch predictor; run C restores the
// real I-cache; run D restores the full data hierarchy. Successive CPI
// deltas give the branch, I-cache and memory components, and the memory
// component calibrates the interval model's visible-latency fraction.
//
// A benchmark is measured on all three core types at once: the curve pass
// records the stream's prefix, and the runs replay that one recording in
// lockstep passes, each decoding a µop once and timing it on several chips.
package profiler

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"smtflex/internal/cache"
	"smtflex/internal/config"
	"smtflex/internal/cpu"
	"smtflex/internal/faults"
	"smtflex/internal/interval"
	"smtflex/internal/isa"
	"smtflex/internal/mem"
	"smtflex/internal/memo"
	"smtflex/internal/multicore"
	"smtflex/internal/obs"
	"smtflex/internal/trace"
)

// profileSeed makes profiling traces independent of experiment traces.
const profileSeed = 0xF00D

// curveCapacities samples the miss curves from 4 KB to 128 MB.
var curveCapacities = func() []int {
	var caps []int
	for b := 4 << 10; b <= 128<<20; b *= 2 {
		caps = append(caps, b/isa.MemBlockSize)
	}
	return caps
}()

// maxCurveDist bounds the stack profiler's resolution (128 MB of blocks).
const maxCurveDist = (128 << 20) / isa.MemBlockSize

// baseWindows returns the ROB partition sizes to sample for a core type:
// every partition the SMT levels of the study can produce.
func baseWindows(cc config.Core) []int {
	if !cc.OutOfOrder {
		return []int{2 * cc.Width}
	}
	seen := map[int]bool{}
	var ws []int
	// Iterating thread count from high to low yields ascending partitions.
	for n := cc.SMTContexts; n >= 1; n-- {
		w := interval.Partition(cc, n)
		if !seen[w] {
			seen[w] = true
			ws = append(ws, w)
		}
	}
	sort.Ints(ws)
	return ws
}

// Source measures and caches profiles. It is safe for concurrent use.
type Source struct {
	// UopCount is the number of µops per measurement run.
	UopCount uint64
	// Warmup is the number of µops executed before measurement starts, so
	// cold caches and untrained predictors do not distort the components.
	Warmup uint64
	// CurveUops is the length of the (cheap) stack-distance pass for the
	// miss curves; a longer window resolves reuse at LLC-scale capacities.
	CurveUops uint64
	// CurveWarmup is the portion of the curve pass excluded from the curve.
	CurveWarmup uint64

	// profiles answers per (benchmark, core type) from benches, which
	// measures per benchmark: one miss runs the benchmark's curve pass and
	// then every run of all three core types (measure). Both suppress
	// duplicates: concurrent misses for one key measure once. benches counts
	// as the "curves" cache, one miss per curve pass.
	profiles memo.Cache[profileKey, *interval.Profile]
	benches  memo.Cache[string, *benchProfiles]

	// measureRuns and curveRuns count underlying measurements — test
	// instrumentation for the stampede regression tests.
	measureRuns atomic.Int64
	curveRuns   atomic.Int64
	// recorded, when set, sees each measurement's recording — test
	// instrumentation for the recording's lifetime.
	recorded func(rec *trace.Recording)
}

type profileKey struct {
	bench string
	core  config.CoreType
}

// benchProfiles holds one benchmark's profiles, indexed by core type.
type benchProfiles [config.NumCoreTypes]*interval.Profile

type curvePair struct {
	data, code cache.MissCurve
	dataAPKU   float64
	iBlockAPKU float64
}

// NewSource returns a Source measuring runs of uopCount µops each.
func NewSource(uopCount uint64) *Source {
	if uopCount == 0 {
		uopCount = 200_000
	}
	s := &Source{
		UopCount:    uopCount,
		Warmup:      2 * uopCount,
		CurveUops:   8 * uopCount,
		CurveWarmup: 2 * uopCount,
	}
	s.profiles.Name = "profiles"
	s.benches.Name = "curves"
	return s
}

// CacheCounters snapshots the profile and curve cache counters for the
// daemon's per-cache metrics.
func (s *Source) CacheCounters() []memo.Counters {
	return []memo.Counters{s.profiles.Counters(), s.benches.Counters()}
}

// Profile returns the (cached) profile of spec on core type ct. The first
// call for a benchmark measures its profiles on every core type at once;
// concurrent calls for the same benchmark measure once, and the callers that
// lose the race block and share the winner's profiles. A failed measurement
// is not cached: a later call retries it.
func (s *Source) Profile(spec trace.Spec, ct config.CoreType) (*interval.Profile, error) {
	return s.ProfileCtx(context.Background(), spec, ct)
}

// ProfileCtx is Profile with tracing and cancellation: when ctx carries an
// active trace, a profile cache miss is recorded as a "profiler.profile"
// span nested under the cache's memo.get span, and an actual measurement as
// a "profiler.measure" span below it. Cache hits — the overwhelming majority
// once the engine is warm — are not spanned; see memo.Cache.GetCtx. The
// profile returned is identical to Profile's. A caller whose ctx is done
// stops waiting and gets ctx's error; the measurement runs on and is cached.
func (s *Source) ProfileCtx(ctx context.Context, spec trace.Spec, ct config.CoreType) (*interval.Profile, error) {
	if ct >= config.NumCoreTypes {
		return nil, fmt.Errorf("profiler: unknown core type %v", ct)
	}
	key := profileKey{bench: spec.Name, core: ct}
	if p, ok := s.profiles.Load(key); ok {
		return p, nil
	}
	return s.profileMiss(ctx, key, spec)
}

// profileMiss is ProfileCtx past a failed Load. It is a function of its own
// because its compute closure captures spec: that moves spec to the heap,
// and here only a miss pays for it.
func (s *Source) profileMiss(ctx context.Context, key profileKey, spec trace.Spec) (*interval.Profile, error) {
	ct := key.core
	return s.profiles.GetCtx(ctx, key, func(ctx context.Context) (*interval.Profile, error) {
		ctx, sp := obs.StartSpan(ctx, "profiler.profile")
		sp.SetAttr("benchmark", spec.Name)
		sp.SetAttr("core", ct.String())
		defer sp.End()
		if err := faults.Check(faults.SiteProfiler); err != nil {
			return nil, err
		}
		ps, err := s.benches.GetCtx(ctx, spec.Name, func(ctx context.Context) (*benchProfiles, error) {
			return s.measure(ctx, spec)
		})
		if err != nil {
			return nil, err
		}
		return ps[ct], nil
	})
}

// measureCurves runs the benchmark's stack-distance pass over the
// profileSeed stream the profiles are measured on, and records the stream's
// first Warmup+UopCount µops on the way: every run replays that recording.
func (s *Source) measureCurves(ctx context.Context, spec trace.Spec) (*curvePair, *trace.Recording, error) {
	_, sp := obs.StartSpan(ctx, "profiler.curves")
	sp.SetAttr("benchmark", spec.Name)
	defer sp.End()
	s.curveRuns.Add(1)
	stream, err := trace.NewRecorder(spec, profileSeed, s.Warmup+s.UopCount)
	if err != nil {
		return nil, nil, err
	}
	dataProf := cache.NewStackProfiler(maxCurveDist)
	codeProf := cache.NewStackProfiler(maxCurveDist)
	var dataAccesses, iBlocks uint64
	var lastBlock uint64
	var dataSnap, codeSnap cache.Snapshot
	for i := uint64(0); i < s.CurveWarmup+s.CurveUops; i++ {
		if i == s.CurveWarmup {
			dataSnap = dataProf.Checkpoint()
			codeSnap = codeProf.Checkpoint()
			dataAccesses, iBlocks = 0, 0
		}
		u := stream.Next()
		if u.Class.IsMem() {
			dataAccesses++
			dataProf.Touch(cache.BlockAddr(u.Addr))
		}
		if blk := cache.BlockAddr(u.PC); blk != lastBlock {
			lastBlock = blk
			iBlocks++
			codeProf.Touch(blk)
		}
	}
	// A curve pass shorter than a run still leaves a run's recording.
	for stream.Recording() == nil {
		stream.Next()
	}
	kilo := float64(s.CurveUops) / 1000
	return &curvePair{
		data:       dataProf.MissRatioCurve(dataSnap, curveCapacities),
		code:       codeProf.MissRatioCurve(codeSnap, curveCapacities),
		dataAPKU:   float64(dataAccesses) / kilo,
		iBlockAPKU: float64(iBlocks) / kilo,
	}, stream.Recording(), nil
}

// measured holds the warm-window measurement of one run.
type measured struct {
	cpi         float64
	mispredicts float64 // per µop
	wbFraction  float64 // DRAM writebacks per DRAM fill
}

// run is one cycle-engine run of a measurement: the benchmark alone on a
// single core with configuration cc and the given ideal flags. Its result
// lands in out.
type run struct {
	cc    config.Core
	ideal cpu.Ideal
	out   *measured
}

// ownsLLC reports whether the run's chip builds the 2 MB LLC: every run
// that does not perfect both the I-cache and the D-cache (multicore.New).
func (r *run) ownsLLC() bool { return !r.ideal.ICache || !r.ideal.DCache }

// coreRuns are one core type's runs of a measurement and their results.
type coreRuns struct {
	ct config.CoreType
	cc config.Core
	// windows are the ROB partitions of run A, base its results.
	windows []int
	base    []measured
	// b, c, d and dmin are the results of runs B, C, D and D at the
	// smallest SMT partition (out-of-order SMT cores only).
	b, c, d, dmin measured
}

func newCoreRuns(ct config.CoreType) *coreRuns {
	cc := config.CoreOfType(ct)
	ws := baseWindows(cc)
	return &coreRuns{ct: ct, cc: cc, windows: ws, base: make([]measured, len(ws))}
}

// hasMinWindow reports whether the core type calibrates a second visible
// fraction at its smallest SMT partition.
func (cr *coreRuns) hasMinWindow() bool { return cr.cc.OutOfOrder && cr.cc.SMTContexts > 1 }

// runs lists the core type's runs: run A at every window (perfect
// everything), then B (real branches), C (real I-cache), D (real data
// hierarchy) and, on out-of-order SMT cores, D at the smallest partition.
func (cr *coreRuns) runs() []*run {
	var rs []*run
	allIdeal := cpu.Ideal{Branch: true, ICache: true, DCache: true}
	for i, w := range cr.windows {
		wcc := cr.cc
		if cr.cc.OutOfOrder {
			wcc.ROBSize = w
		}
		rs = append(rs, &run{cc: wcc, ideal: allIdeal, out: &cr.base[i]})
	}
	rs = append(rs,
		&run{cc: cr.cc, ideal: cpu.Ideal{ICache: true, DCache: true}, out: &cr.b},
		&run{cc: cr.cc, ideal: cpu.Ideal{DCache: true}, out: &cr.c},
		&run{cc: cr.cc, out: &cr.d})
	if cr.hasMinWindow() {
		wcc := cr.cc
		wcc.ROBSize = interval.Partition(cr.cc, cr.cc.SMTContexts)
		rs = append(rs, &run{cc: wcc, out: &cr.dmin})
	}
	return rs
}

// passes groups runs into passes over the recording: one pass per run that
// owns an LLC, so a measurement never holds two 2 MB LLCs at once, with the
// cache-less runs dealt over those passes in turn.
func passes(rs []*run) [][]*run {
	var ps [][]*run
	var riders []*run
	for _, r := range rs {
		if r.ownsLLC() {
			ps = append(ps, []*run{r})
		} else {
			riders = append(riders, r)
		}
	}
	for i, r := range riders {
		ps[i%len(ps)] = append(ps[i%len(ps)], r)
	}
	return ps
}

// window returns the µops a run steps before its measured window opens and
// in all: as many as Chip.Run(Warmup) and then Chip.Run(Warmup+UopCount)
// step a one-thread chip, at least one per call.
func (s *Source) window() (warm, end uint64) {
	warm = max(s.Warmup, 1)
	return warm, max(s.Warmup+s.UopCount, warm+1)
}

// runPass steps a pass's runs over the recording in lockstep: it decodes
// each µop once and times it on every run's chip. Every chip's one thread is
// bound to the pass's replay, which only the pass reads. The chips go with
// the call, so the next pass never finds this one's LLC still reachable.
func (s *Source) runPass(rec *trace.Recording, rs []*run) error {
	stream := rec.Reader()
	chips := make([]*multicore.Chip, len(rs))
	cores := make([]*cpu.Core, len(rs))
	for i, r := range rs {
		d := config.Design{Name: "profiling", SMTEnabled: false, MemBandwidthGBps: 8}
		d.Cores = []config.Core{r.cc}
		llc := config.LLCConfig()
		d.LLC.SizeBytes = llc.SizeBytes
		d.LLC.Assoc = llc.Assoc
		d.LLC.LatencyCycles = llc.LatencyCycles
		chip, err := multicore.New(d, r.ideal)
		if err != nil {
			return err
		}
		if _, err := chip.AttachThread(0, stream); err != nil {
			return err
		}
		chips[i], cores[i] = chip, chip.Core(0)
	}
	warmAt, end := s.window()
	warm := make([]cpu.ThreadStats, len(rs))
	warmDram := make([]mem.Stats, len(rs))
	var u isa.Uop
	for i := uint64(0); i < end; i++ {
		if i == warmAt {
			for j, chip := range chips {
				warm[j], warmDram[j] = chip.ThreadStats(0), chip.DRAMStats()
			}
		}
		stream.Decode(&u)
		for _, c := range cores {
			c.Step(0, &u)
		}
	}
	for j, r := range rs {
		final, finalDram := chips[j].ThreadStats(0), chips[j].DRAMStats()
		duops := float64(final.Uops - warm[j].Uops)
		*r.out = measured{
			cpi:         (final.FinishTime - warm[j].FinishTime) / duops,
			mispredicts: float64(final.Mispredicts-warm[j].Mispredicts) / duops,
		}
		if fills := finalDram.Accesses - warmDram[j].Accesses; fills > 0 {
			r.out.wbFraction = float64(finalDram.Writebacks-warmDram[j].Writebacks) / float64(fills)
		}
	}
	return nil
}

// measure profiles spec on every core type: the curve pass, then every core
// type's runs in lockstep passes over the pass's recording, which lives only
// as long as this call.
func (s *Source) measure(ctx context.Context, spec trace.Spec) (*benchProfiles, error) {
	ctx, sp := obs.StartSpan(ctx, "profiler.measure")
	sp.SetAttr("benchmark", spec.Name)
	defer sp.End()
	s.measureRuns.Add(1)
	curves, rec, err := s.measureCurves(ctx, spec)
	if err != nil {
		return nil, err
	}
	if s.recorded != nil {
		s.recorded(rec)
	}
	var crs [config.NumCoreTypes]*coreRuns
	for ct := range crs {
		crs[ct] = newCoreRuns(config.CoreType(ct))
		for _, p := range passes(crs[ct].runs()) {
			if err := s.runPass(rec, p); err != nil {
				return nil, err
			}
		}
	}
	var ps benchProfiles
	for ct, cr := range crs {
		if ps[ct], err = cr.profile(spec, curves); err != nil {
			return nil, err
		}
	}
	return &ps, nil
}

// profile derives the core type's profile from its runs' results: successive
// CPI deltas give the branch, I-cache and memory components, and the memory
// component calibrates the visible-latency fraction.
func (cr *coreRuns) profile(spec trace.Spec, curves *curvePair) (*interval.Profile, error) {
	cc := cr.cc
	p := &interval.Profile{
		Benchmark:  spec.Name,
		Core:       cr.ct,
		DataAPKU:   curves.dataAPKU,
		IBlockAPKU: curves.iBlockAPKU,
		DCurve:     curves.data,
		ICurve:     curves.code,
	}

	// Base CPI at every reachable ROB partition (perfect everything).
	for i, w := range cr.windows {
		p.BaseWindows = append(p.BaseWindows, w)
		p.BaseCPIs = append(p.BaseCPIs, cr.base[i].cpi)
	}
	cpiA := p.BaseCPIs[len(p.BaseCPIs)-1] // full-window base CPI

	// Real branches, then the real I-cache, then the real data hierarchy.
	p.BrCPI = clampNonNeg(cr.b.cpi - cpiA)
	p.BrMPKU = cr.b.mispredicts * 1000
	p.L1ICPI = clampNonNeg(cr.c.cpi - cr.b.cpi)
	memCPI := clampNonNeg(cr.d.cpi - cr.c.cpi)
	p.BaselineMemCPI = memCPI
	p.WritebackFraction = cr.d.wbFraction

	// Calibrate the visible-latency fraction so that Evaluate reproduces the
	// measured memory CPI at the baseline configuration.
	base := baselineShares(cc)
	rawMem := rawMemCost(p, cc, fullWindow(cc), base)
	p.Visible = 1
	p.VisibleWindow = fullWindow(cc)
	if rawMem > 1e-9 {
		p.Visible = memCPI / rawMem
	}
	// Latency overlap can only hide latency: a visible fraction above one
	// means the curve model under-predicts baseline misses (set conflicts);
	// charge the unexplained remainder as a constant instead of letting it
	// amplify capacity-sharing effects.
	if p.Visible > 1 {
		p.Visible = 1
		p.MemConstCPI = memCPI - rawMem
	}

	// For out-of-order cores, the real-hierarchy run repeated at the smallest
	// SMT partition: the shrunken window holds fewer outstanding misses, so
	// more of the latency becomes visible. The interval model interpolates
	// between the two calibration points.
	if cr.hasMinWindow() {
		wmin := interval.Partition(cc, cc.SMTContexts)
		memCPImin := clampNonNeg(cr.dmin.cpi - p.BaseCPI(wmin) - p.BrCPI - p.L1ICPI - p.MemConstCPI)
		p.VisibleMinWindow = wmin
		p.VisibleMin = p.Visible
		if rawMem > 1e-9 {
			p.VisibleMin = memCPImin / rawMem
		}
		if p.VisibleMin > 1 {
			p.VisibleMin = 1
		}
		// A smaller window never hides more latency than the full one.
		if p.VisibleMin < p.Visible {
			p.VisibleMin = p.Visible
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("profiler: %s on %s: %w", spec.Name, cr.ct, err)
	}
	return p, nil
}

// rawMemCost evaluates the un-calibrated (visible=1) memory CPI of p on cc.
func rawMemCost(p *interval.Profile, cc config.Core, w int, sh interval.Shares) float64 {
	probe := *p
	probe.Visible = 1
	probe.VisibleMin = 0
	raw := probe.Evaluate(cc, w, sh)
	return raw.L2 + raw.LLC + raw.Mem
}

// baselineShares returns the capacity shares of a thread running alone on
// core cc with the whole LLC and uncontended memory.
func baselineShares(cc config.Core) interval.Shares {
	mc := config.MemConfig(8)
	return interval.Shares{
		L1I:              float64(cc.L1I.SizeBytes),
		L1D:              float64(cc.L1D.SizeBytes),
		L2:               float64(cc.L2.SizeBytes),
		LLC:              float64(config.LLCConfig().SizeBytes),
		MemLatencyCycles: uncontendedMemLatency(mc),
	}
}

func uncontendedMemLatency(mc mem.Config) float64 {
	return float64(mc.AccessTimeCycles) + mc.BusCyclesPerBlock()
}

func fullWindow(cc config.Core) int {
	if !cc.OutOfOrder {
		return 2 * cc.Width
	}
	return cc.ROBSize
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
