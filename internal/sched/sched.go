// Package sched maps the threads of a workload onto the cores of a design
// point, following the paper's scheduling principles: schedule threads on
// the big cores before the small ones, spread threads across cores before
// engaging SMT, and use offline analysis (here: the interval model) to pick
// which thread goes to which core and which threads co-run on an SMT core.
package sched

import (
	"context"
	"fmt"
	"sort"

	"smtflex/internal/config"
	"smtflex/internal/contention"
	"smtflex/internal/interval"
	"smtflex/internal/obs"
	"smtflex/internal/trace"
	"smtflex/internal/workload"
)

// ProfileSource provides benchmark profiles per core type; package profiler
// implements it. A failed measurement reports an error instead of a profile;
// the scheduler propagates it to the caller.
type ProfileSource interface {
	Profile(spec trace.Spec, ct config.CoreType) (*interval.Profile, error)
}

// CtxProfileSource is implemented by profile sources whose lookups accept a
// context for observability (package profiler). PlaceCtx uses it when the
// source offers it, so profile spans nest under the placement span.
type CtxProfileSource interface {
	ProfileCtx(ctx context.Context, spec trace.Spec, ct config.CoreType) (*interval.Profile, error)
}

// ctxSource adapts a CtxProfileSource back to ProfileSource with a fixed
// context, so Place's single code path serves both entry points. The stored
// context is purely observational (never used for cancellation).
type ctxSource struct {
	ctx context.Context
	cs  CtxProfileSource
}

func (c ctxSource) Profile(spec trace.Spec, ct config.CoreType) (*interval.Profile, error) {
	return c.cs.ProfileCtx(c.ctx, spec, ct)
}

// PlaceCtx is Place with tracing: when ctx carries an active trace the
// placement is recorded as a "sched.place" span, with the profile lookups it
// triggers nested inside when src implements CtxProfileSource. The placement
// returned is identical to Place's.
func PlaceCtx(ctx context.Context, d config.Design, mix workload.Mix, src ProfileSource) (contention.Placement, error) {
	ctx, sp := obs.StartSpan(ctx, "sched.place")
	sp.SetAttr("design", d.Name)
	sp.SetAttr("mix", mix.ID)
	sp.SetAttr("threads", mix.NumThreads())
	defer sp.End()
	if cs, ok := src.(CtxProfileSource); ok {
		src = ctxSource{ctx: ctx, cs: cs}
	}
	return Place(d, mix, src)
}

// soloIPC estimates a thread's isolated IPC on core cc with a full window
// and uncontended memory — the "offline analysis" signal.
func soloIPC(p *interval.Profile, cc *config.Core) float64 {
	sh := interval.Shares{
		L1I: float64(cc.L1I.SizeBytes),
		L1D: float64(cc.L1D.SizeBytes),
		L2:  float64(cc.L2.SizeBytes),
		LLC: float64(config.LLCConfig().SizeBytes),
		// Uncontended: 45ns at the core's frequency plus one bus transfer.
		MemLatencyCycles: 45*cc.FrequencyGHz + 64/(8.0/cc.FrequencyGHz),
	}
	w := cc.ROBSize
	if !cc.OutOfOrder {
		w = 2 * cc.Width
	}
	return 1 / p.Evaluate(*cc, w, sh).Total()
}

// typeProfiles holds one program's profile per core type; types absent
// from the design stay nil.
type typeProfiles [config.NumCoreTypes]*interval.Profile

// programs holds what placement needs of a mix's programs, resolved once
// per distinct program however many threads run it. A program is named by
// its index in the suite's sorted names (workload.Index), so the tables
// need no map.
type programs struct {
	// of[i] is thread i's program.
	of []int
	// prof[g] and ipcOn[g] are program g's profile and solo IPC per core
	// type present in the design; programs absent from the mix stay zero.
	prof  []typeProfiles
	ipcOn [][config.NumCoreTypes]float64
}

// profile returns thread i's profile for core type t.
func (pr *programs) profile(i int, t config.CoreType) *interval.Profile {
	return pr.prof[pr.of[i]][t]
}

// resolve validates the design and the mix and resolves each distinct
// program's profile and solo IPC on every core type present in the design.
// Every program name resolves before any profile is requested, so a bad
// name fails before a cold source measures anything.
func resolve(d config.Design, mix workload.Mix, src ProfileSource) (*programs, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if mix.NumThreads() == 0 {
		return nil, fmt.Errorf("sched: empty mix %s", mix.ID)
	}
	// Offline signal: solo IPC on the first core of each type.
	var typeCfg [config.NumCoreTypes]*config.Core
	for c := range d.Cores {
		t := d.Cores[c].Type
		if t >= config.NumCoreTypes {
			return nil, fmt.Errorf("sched: design %s core %d has unknown type %d", d.Name, c, t)
		}
		if typeCfg[t] == nil {
			typeCfg[t] = &d.Cores[c]
		}
	}
	pr := &programs{of: make([]int, mix.NumThreads())}
	n := 0
	for i, name := range mix.Programs {
		g, err := workload.Index(name)
		if err != nil {
			return nil, err
		}
		pr.of[i] = g
		n = max(n, g+1)
	}
	pr.prof = make([]typeProfiles, n)
	pr.ipcOn = make([][config.NumCoreTypes]float64, n)
	for i, g := range pr.of {
		if pr.prof[g] != (typeProfiles{}) {
			continue // an earlier thread runs the same program
		}
		spec, err := workload.ByName(mix.Programs[i])
		if err != nil {
			return nil, err
		}
		for c := range d.Cores {
			t := d.Cores[c].Type
			if pr.prof[g][t] != nil {
				continue
			}
			p, err := src.Profile(spec, t)
			if err != nil {
				return nil, fmt.Errorf("sched: profiling %s on %s: %w", spec.Name, t, err)
			}
			pr.prof[g][t] = p
			pr.ipcOn[g][t] = soloIPC(p, typeCfg[t])
		}
	}
	return pr, nil
}

// Place builds a contention.Placement for the mix on the design.
//
// Phase 1 gives each thread its own core while cores remain, big cores
// first, assigning the threads that benefit most from a big core (highest
// big-to-own-type IPC ratio) to the biggest cores. Phase 2 (more threads
// than cores) adds each remaining thread to the core where the projected
// marginal chip throughput is highest, respecting SMT context limits; with
// SMT disabled, excess threads time-share, filling big cores first.
func Place(d config.Design, mix workload.Mix, src ProfileSource) (contention.Placement, error) {
	pr, err := resolve(d, mix, src)
	if err != nil {
		return contention.Placement{}, err
	}
	return place(d, pr), nil
}

// place is Place on resolved programs.
func place(d config.Design, pr *programs) contention.Placement {
	n := len(pr.of)
	coreOf := make([]int, n)
	for i := range coreOf {
		coreOf[i] = -1
	}
	// Each core's residents, in arrival order, in one backing array.
	slots := make([]int, len(d.Cores)*n)
	perCore := make([][]int, len(d.Cores))
	for c := range perCore {
		perCore[c] = slots[c*n : c*n : (c+1)*n]
	}

	// Phase 1: one thread per core, big cores first. Order threads by how
	// much they gain from the biggest core type relative to the smallest
	// present, so big-core-sensitive threads land on big cores.
	biggest, smallest := d.Cores[0].Type, d.Cores[len(d.Cores)-1].Type
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ga, gb := pr.of[order[a]], pr.of[order[b]]
		ra := pr.ipcOn[ga][biggest] / pr.ipcOn[ga][smallest]
		rb := pr.ipcOn[gb][biggest] / pr.ipcOn[gb][smallest]
		return ra > rb
	})
	phase1 := n
	if phase1 > len(d.Cores) {
		phase1 = len(d.Cores)
	}
	for k := 0; k < phase1; k++ {
		ti := order[k]
		coreOf[ti] = k
		perCore[k] = append(perCore[k], ti)
	}

	// Phase 2: place remaining threads by best marginal throughput. The
	// tiny occupancy penalty breaks exact ties (identical threads under
	// time sharing have zero marginal gain everywhere) toward the least
	// loaded core, i.e. round-robin. A core's throughput changes only when
	// it gains a thread, so each core's current value is kept, and the
	// candidate that wins becomes its core's new current value.
	if phase1 < n {
		const tieBreak = 1e-6
		e := newEstimator(d, pr)
		before := make([]float64, len(d.Cores))
		after := make([]float64, len(d.Cores))
		for c := range d.Cores {
			before[c] = e.throughput(c, perCore[c])
		}
		for k := phase1; k < n; k++ {
			ti := order[k]
			best, bestGain := -1, 0.0
			for c := range d.Cores {
				e.ths = append(append(e.ths[:0], perCore[c]...), ti)
				after[c] = e.throughput(c, e.ths)
				gain := after[c] - before[c] - tieBreak*float64(len(perCore[c]))
				if best < 0 || gain > bestGain {
					best, bestGain = c, gain
				}
			}
			coreOf[ti] = best
			perCore[best] = append(perCore[best], ti)
			before[best] = after[best]
		}
	}

	profiles := make([]*interval.Profile, n)
	for i := range profiles {
		profiles[i] = pr.profile(i, d.Cores[coreOf[i]].Type)
	}
	return contention.Placement{Design: d, CoreOf: coreOf, Profiles: profiles}
}

// estimator projects core throughputs for Place's phase 2. An IPC
// estimate depends only on the program, its core's configuration and the
// number of co-runners, so each is evaluated once per Place call and
// memoized per program; cores with identical configurations share
// estimates.
type estimator struct {
	d  config.Design
	pr *programs
	// class[c] numbers core c's configuration: adjacent identical cores
	// (the design's cores of one type) share a class.
	class    []int
	nClasses int
	// memo holds the IPC estimates at
	// ((program*nClasses)+class)*stride + coRunners; zero means not yet
	// evaluated (an estimate of exactly zero is simply re-evaluated).
	memo   []float64
	stride int
	// ths and ipcs are scratch for one throughput projection.
	ths  []int
	ipcs []float64
}

func newEstimator(d config.Design, pr *programs) *estimator {
	e := &estimator{d: d, pr: pr, class: make([]int, len(d.Cores))}
	maxCtx := 0
	for c := range d.Cores {
		if c > 0 && d.Cores[c] != d.Cores[c-1] {
			e.nClasses++
		}
		e.class[c] = e.nClasses
		maxCtx = max(maxCtx, d.Cores[c].SMTContexts)
	}
	e.nClasses++
	e.stride = maxCtx + 1
	e.memo = make([]float64, len(pr.prof)*e.nClasses*e.stride)
	return e
}

// throughput estimates the summed IPC×timeShare of threads ths on core c,
// accounting for ROB partitioning, width sharing and time sharing.
func (e *estimator) throughput(c int, ths []int) float64 {
	cc := &e.d.Cores[c]
	k := len(ths)
	if k == 0 {
		return 0
	}
	if !e.d.SMTEnabled {
		// Time sharing: the core delivers the average of its threads' solo
		// throughputs.
		var sum float64
		for _, t := range ths {
			sum += e.pr.ipcOn[e.pr.of[t]][cc.Type]
		}
		return sum / float64(k)
	}
	coRunners := k
	timeShare := 1.0
	if k > cc.SMTContexts {
		coRunners = cc.SMTContexts
		timeShare = float64(cc.SMTContexts) / float64(k)
	}
	ipcs := e.ipcs[:0]
	for _, t := range ths {
		ipcs = append(ipcs, e.estimate(e.pr.of[t], c, coRunners))
	}
	e.ipcs = ipcs
	if coRunners > 1 {
		interval.ShareWidth(ipcs, cc.Width)
	}
	var sum float64
	for _, v := range ipcs {
		sum += v
	}
	return sum * timeShare * cc.FrequencyGHz
}

// estimate returns program g's IPC on core c among coRunners co-running
// threads, with private caches split evenly and a nominally loaded LLC and
// memory.
func (e *estimator) estimate(g, c, coRunners int) float64 {
	key := (g*e.nClasses+e.class[c])*e.stride + coRunners
	if v := e.memo[key]; v != 0 {
		return v
	}
	cc := &e.d.Cores[c]
	sh := interval.Shares{
		L1I:              float64(cc.L1I.SizeBytes) / float64(coRunners),
		L1D:              float64(cc.L1D.SizeBytes) / float64(coRunners),
		L2:               float64(cc.L2.SizeBytes) / float64(coRunners),
		LLC:              float64(config.LLCConfig().SizeBytes) / 8,
		MemLatencyCycles: 45 * cc.FrequencyGHz * 1.5,
	}
	v := 1 / e.pr.prof[g][cc.Type].Evaluate(*cc, interval.Partition(*cc, coRunners), sh).Total()
	e.memo[key] = v
	return v
}
