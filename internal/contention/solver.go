package contention

import (
	"context"
	"fmt"
	"math"
	"slices"

	"smtflex/internal/faults"
	"smtflex/internal/interval"
	"smtflex/internal/obs"
)

// Solver runs contention solves with reusable scratch buffers, so repeated
// solves — a design sweep evaluates tens of thousands of placements — stay
// allocation-free at steady state. The zero value is ready to use; buffers
// grow on first use and are reused afterwards.
//
// A Solver is NOT safe for concurrent use: callers that fan solves across
// workers keep one Solver per worker (the study's pool draws them from a
// sync.Pool). The returned Result's Threads and CoreUtilization slices alias
// the solver's scratch and are valid only until the next call on the same
// Solver; callers that retain them across solves must copy (the package
// Solve/SolveModel wrappers use a fresh Solver per call, so their results
// never alias shared state).
//
// The fixed-point state is kept per thread class, not per thread (see
// classify): threads of one class hold equal state in every iteration, so
// each class's lookups, CPI stack and damped updates are computed once.
type Solver struct {
	// group[c] lists core c's threads in thread order; group backing
	// slices are reused across solves.
	group [][]int
	// cores holds one entry per class of equal cores.
	cores []coreClass
	// cls[i] is thread i's class; seq backs the coreClass.seq slices.
	cls, seq []int
	// prof[k] is class k's profile.
	prof []*interval.Profile
	// f64 backs every per-class float64 slice below, carved by prepare.
	f64 []float64
	// Fixed-point state, one entry per class.
	rate, llcShare, l1dShare, l2Share, l1iShare []float64
	// Previous-iteration state for the convergence test.
	prevRate, prevLLC, prevL1D, prevL2 []float64
	// terms holds each class's addend to the thread-order sum in progress:
	// its LLC allocation weight, then its DRAM traffic.
	terms []float64
	// mL1, mL2 and mLLC are each class's raw data miss ratios at its
	// L1D, L1D+L2 and L1D+L2+LLC capacities in the current iteration.
	mL1, mL2, mLLC []float64
	// ipc is each class's IPC after width sharing in the current
	// iteration, and timeShare the fraction of time its threads run.
	ipc, timeShare []float64
	// inv holds each class's solve-invariant evaluation terms and stack
	// its CPI stack in the current iteration.
	inv   []interval.Invariant
	stack []interval.CPIStack
	// cacheW holds one core's cache allocation weights by class, and ipcs
	// its threads' IPCs in thread order for width sharing.
	cacheW, ipcs []float64
	// threads and coreUtil back the returned Result.
	threads  []ThreadResult
	coreUtil []float64
}

// coreClass is a class of equal cores, solved once through its
// representative.
type coreClass struct {
	// core is the representative: the class's lowest-index core.
	core int
	// seq lists the class of each of the representative's threads, in
	// thread order; its distinct classes are lo..hi-1.
	seq    []int
	lo, hi int
	// coRunners is how many of its threads share the pipeline at a time.
	coRunners int
}

// NewSolver returns a Solver ready for repeated use.
func NewSolver() *Solver { return &Solver{} }

// Solve is SolveModel with the calibrated default model.
func (s *Solver) Solve(p Placement) (Result, error) {
	return s.SolveModel(p, DefaultModel())
}

// SolveModelCtx is SolveModel with the same span instrumentation as the
// package-level SolveModelCtx.
func (s *Solver) SolveModelCtx(ctx context.Context, p Placement, m Model) (Result, error) {
	_, sp := obs.StartSpan(ctx, "contention.solve")
	sp.SetAttr("threads", len(p.CoreOf))
	defer sp.End()
	res, err := s.SolveModel(p, m)
	if sp != nil {
		sp.SetAttr("iterations", res.Diag.Iterations)
		sp.SetAttr("residual", res.Diag.Residual)
		sp.SetAttr("converged", res.Diag.Converged)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}
	return res, err
}

// scratch returns buf with length n and unspecified contents (every caller
// writes before reading), reusing the backing array when possible.
func scratch[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// prepare sizes the per-thread and per-core buffers for n threads on
// nCores cores and groups the threads by core.
func (s *Solver) prepare(p Placement, n, nCores int) {
	if cap(s.group) < nCores {
		g := make([][]int, nCores)
		copy(g, s.group)
		s.group = g
	}
	s.group = s.group[:nCores]
	for c := range s.group {
		s.group[c] = s.group[c][:0]
	}
	for i, c := range p.CoreOf {
		s.group[c] = append(s.group[c], i)
	}
	s.cls = scratch(s.cls, n)
	s.seq = scratch(s.seq, n)
	s.threads = scratch(s.threads, n)
	s.coreUtil = scratch(s.coreUtil, nCores)
	clear(s.coreUtil)
	if cap(s.cores) < nCores {
		s.cores = make([]coreClass, 0, nCores)
	}
	if cap(s.prof) < n {
		s.prof = make([]*interval.Profile, 0, n)
	}
}

// prepareClasses sizes the per-class state for m classes, zeroed.
func (s *Solver) prepareClasses(m int) {
	state := [...]*[]float64{
		&s.rate, &s.llcShare, &s.l1dShare, &s.l2Share, &s.l1iShare,
		&s.prevRate, &s.prevLLC, &s.prevL1D, &s.prevL2,
		&s.terms, &s.mL1, &s.mL2, &s.mLLC, &s.ipc, &s.timeShare,
	}
	s.f64 = scratch(s.f64, len(state)*m)
	clear(s.f64)
	for i, v := range state {
		*v = s.f64[i*m : (i+1)*m : (i+1)*m]
	}
	s.inv = scratch(s.inv, m)
	s.stack = scratch(s.stack, m)
}

// classify splits the threads into classes and returns their number. Two
// cores are equal when their configurations are equal and their threads,
// in thread order, have pairwise-identical profile pointers; each core is
// compared only against the representatives found so far. Two threads are
// in one class when they have the same profile pointer and run on equal
// cores. A class's threads start from equal state and every step updates
// them alike, so they hold equal state in every iteration. A placement
// with no repeats is the case of one thread per class.
func (s *Solver) classify(p Placement) int {
	cores := p.Design.Cores
	s.cores = s.cores[:0]
	s.prof = s.prof[:0]
	off := 0
next:
	for c, ths := range s.group {
		if len(ths) == 0 {
			continue
		}
		for _, cc := range s.cores {
			if sameProfiles(p.Profiles, s.group[cc.core], ths) && cores[cc.core] == cores[c] {
				for j, ti := range ths {
					s.cls[ti] = cc.seq[j]
				}
				continue next
			}
		}
		cc := coreClass{core: c, seq: s.seq[off : off+len(ths)], lo: len(s.prof)}
		off += len(ths)
		for j, ti := range ths {
			k := len(s.prof)
			for jj, tj := range ths[:j] {
				if p.Profiles[tj] == p.Profiles[ti] {
					k = cc.seq[jj]
					break
				}
			}
			if k == len(s.prof) {
				s.prof = append(s.prof, p.Profiles[ti])
			}
			s.cls[ti], cc.seq[j] = k, k
		}
		cc.hi = len(s.prof)
		s.cores = append(s.cores, cc)
	}
	return len(s.prof)
}

// sameProfiles reports whether threads a and b have pairwise-identical
// profile pointers.
func sameProfiles(profiles []*interval.Profile, a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if profiles[a[j]] != profiles[b[j]] {
			return false
		}
	}
	return true
}

// SolveModel iterates to a fixed point with explicit model choices. The
// arithmetic and iteration order are exactly the seed engine's — results are
// bit-identical — but each iteration does only the work that can change:
// a thread's core, ROB partition and I-cache share are fixed by the
// placement, so their evaluation terms are computed once per solve (see
// interval.Invariant); each data-curve lookup is made at most once per
// iteration, only when its capacity moved, and shared by every step that
// reads it; and all of it is done once per thread class. Every sum across
// threads still adds one value per thread in thread order — never a
// product, since ((x+x)+x)+x need not equal 4*x.
func (s *Solver) SolveModel(p Placement, m Model) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	p = m.flatten(p)
	n := len(p.CoreOf)
	s.prepare(p, n, len(p.Design.Cores))
	res := Result{
		Threads:         s.threads,
		CoreUtilization: s.coreUtil,
	}
	if n == 0 {
		res.MemLatencyNs = m.memLatency(0, p.Design.MemBandwidthGBps)
		res.Diag.Converged = true
		return res, nil
	}
	s.prepareClasses(s.classify(p))
	s.setInvariants(p)

	// State: absolute rates (µops/ns), initialized optimistically.
	cores := p.Design.Cores
	rate := s.rate
	for _, cc := range s.cores {
		core := &cores[cc.core]
		for k := cc.lo; k < cc.hi; k++ {
			rate[k] = float64(core.Width) * core.FrequencyGHz / 2
		}
	}
	llcShare := s.llcShare
	l1dShare := s.l1dShare
	l2Share := s.l2Share
	inv, mL1, mL2, mLLC, terms := s.inv, s.mL1, s.mL2, s.mLLC, s.terms
	stack, ipc, timeShare := s.stack, s.ipc, s.timeShare
	cls := s.cls

	llcBytes := float64(p.Design.LLC.SizeBytes)
	memLatNs := m.memLatency(0, p.Design.MemBandwidthGBps)

	f := m.dampFactor()
	maxIter := m.maxIterations()

	for iter := 0; iter < maxIter; iter++ {
		if err := faults.Check(faults.SiteSolver); err != nil {
			return Result{}, fmt.Errorf("contention: iteration %d: %w", iter, err)
		}
		copy(s.prevRate, rate)
		copy(s.prevLLC, llcShare)
		copy(s.prevL1D, l1dShare)
		copy(s.prevL2, l2Share)
		prevMemLat := memLatNs

		// --- Private cache shares within each core (allocation-weighted) ---
		for i := range s.cores {
			s.shareCaches(p, &s.cores[i], f)
		}

		// --- LLC shares across all threads (allocation-weighted) ---
		// The private shares are final for this iteration, so the L1D and
		// L1D+L2 lookups made here serve the CPI stacks below as well. A
		// ratio whose capacity has not moved since the previous iteration
		// looked it up is kept: the same function of the same floats.
		for k, prof := range s.prof {
			l1Moved := iter == 0 || l1dShare[k] != s.prevL1D[k]
			if l1Moved {
				mL1[k] = prof.DataMissAt(l1dShare[k])
			}
			if l1Moved || l2Share[k] != s.prevL2[k] {
				mL2[k] = prof.DataMissAt(l1dShare[k] + l2Share[k])
			}
			terms[k] = inv[k].DataPerUop * mL2[k] * rate[k]
		}
		wsum := sumOver(terms, cls)
		floor := 0.05 / float64(n)
		for k := range llcShare {
			var frac float64
			switch {
			case m.EqualLLCShares:
				frac = 1 / float64(n)
			case wsum > 1e-15:
				frac = terms[k] / wsum
			default:
				frac = 1 / float64(n)
			}
			frac = math.Max(frac, floor)
			llcShare[k] = damp(llcShare[k], frac*llcBytes, f)
		}
		normalize(llcShare, cls, 0, len(llcShare), llcBytes)

		// --- Memory traffic and latency (fills plus writebacks) ---
		for k, prof := range s.prof {
			if iter == 0 || l1dShare[k] != s.prevL1D[k] || l2Share[k] != s.prevL2[k] || llcShare[k] != s.prevLLC[k] {
				mLLC[k] = prof.DataMissAt(l1dShare[k] + l2Share[k] + llcShare[k])
			}
			terms[k] = inv[k].DataPerUop * mLLC[k] * (1 + prof.WritebackFraction) * rate[k]
		}
		traffic := sumOver(terms, cls) // blocks per ns
		memLatNs = damp(memLatNs, m.memLatency(traffic, p.Design.MemBandwidthGBps), f)
		memLatNs = faults.Corrupt(faults.SiteSolver, memLatNs)

		// --- Per-thread CPI and per-core width/time sharing ---
		for i := range s.cores {
			cc := &s.cores[i]
			core := &cores[cc.core]
			memLatCycles := memLatNs * core.FrequencyGHz
			for k := cc.lo; k < cc.hi; k++ {
				st := inv[k].Stack(mL1[k], mL2[k], mLLC[k], memLatCycles)
				stack[k] = st
				ipc[k] = 1 / st.Total()
			}
			if p.Design.SMTEnabled && cc.coRunners > 1 {
				ipcs := scratch(s.ipcs, len(cc.seq))
				s.ipcs = ipcs
				for j, k := range cc.seq {
					ipcs[j] = ipc[k]
				}
				interval.ShareWidthEff(ipcs, core.Width, m.effIssue())
				for j, k := range cc.seq {
					ipc[k] = ipcs[j]
				}
			}
			for k := cc.lo; k < cc.hi; k++ {
				rate[k] = damp(rate[k], ipc[k]*timeShare[k]*core.FrequencyGHz, f)
			}
		}

		// --- Convergence over all damped state ---
		// The relative residual is computed only where it is reported or
		// tested: a positive tolerance, the last budgeted iteration and a
		// non-finite state. On finite state the zero-tolerance test
		// "residual <= 0" holds exactly when nothing changed, which an
		// equality scan decides without the divisions.
		res.Diag.Iterations = iter + 1
		finite := finiteState(memLatNs, rate, llcShare, l1dShare, l2Share)
		converged := false
		switch {
		case m.Tolerance > 0 || iter == maxIter-1 || !finite:
			res.Diag.Residual = s.residual(prevMemLat, memLatNs)
			converged = res.Diag.Residual <= m.Tolerance
		case m.Tolerance == 0 && s.unchanged(prevMemLat, memLatNs):
			res.Diag.Residual = 0
			converged = true
		}
		if !finite {
			return Result{Diag: res.Diag}, fmt.Errorf("%w: non-finite state after iteration %d", ErrDiverged, iter+1)
		}
		// With the default zero tolerance this fires only when an iteration
		// changed nothing at all, so stopping here is bit-identical to
		// running out the full budget.
		if converged {
			res.Diag.Converged = true
			break
		}
	}
	if !res.Diag.Converged && m.Tolerance > 0 {
		return Result{Diag: res.Diag}, fmt.Errorf("%w: residual %.3g after %d iterations (tolerance %g)",
			ErrNotConverged, res.Diag.Residual, res.Diag.Iterations, m.Tolerance)
	}

	// Finalize, per thread. The last iteration's L1D+L2+LLC lookup is the
	// final shares' DRAM miss ratio.
	for k, prof := range s.prof {
		terms[k] = inv[k].DataPerUop * mLLC[k] * (1 + prof.WritebackFraction) * rate[k]
	}
	for i, c := range p.CoreOf {
		k := cls[i]
		core := &cores[c]
		res.Threads[i] = ThreadResult{
			Stack:     stack[k],
			IPC:       ipc[k],
			TimeShare: timeShare[k],
			UopsPerNs: rate[k],
			Shares: interval.Shares{
				L1I: s.l1iShare[k], L1D: l1dShare[k], L2: l2Share[k], LLC: llcShare[k],
				MemLatencyCycles: memLatNs * core.FrequencyGHz,
			},
		}
		res.CoreUtilization[c] += ipc[k] * timeShare[k] / float64(core.Width)
	}
	res.MemLatencyNs = memLatNs
	res.BusUtilization = math.Min(sumOver(terms, cls)*blockBytes/p.Design.MemBandwidthGBps, 1)
	publishMachStats(p, res)
	return res, nil
}

// setInvariants fixes each class's SMT occupancy and I-cache share and
// computes its solve-invariant evaluation terms at its core's ROB
// partition. The I-cache is shared by *code*, not by thread: co-runners
// executing the same benchmark fetch the same instructions, so on an SMT
// core the capacity splits across distinct benchmarks, not across threads.
// Without SMT each time-shared thread uses the full capacity during its
// slice.
func (s *Solver) setInvariants(p Placement) {
	smt := p.Design.SMTEnabled
	for i := range s.cores {
		cc := &s.cores[i]
		core := &p.Design.Cores[cc.core]
		ths := s.group[cc.core]
		var tshare float64
		cc.coRunners, tshare = smtOccupancy(core, smt, len(ths))
		part := interval.Partition(*core, cc.coRunners)
		iShare := float64(core.L1I.SizeBytes)
		if smt && len(ths) > 1 {
			iShare /= float64(distinctBenchmarks(p, ths))
		}
		for k := cc.lo; k < cc.hi; k++ {
			s.timeShare[k] = tshare
			s.l1iShare[k] = iShare
			s.inv[k] = s.prof[k].Invariant(core, part, iShare)
		}
	}
}

// distinctBenchmarks counts the different benchmarks among the threads.
func distinctBenchmarks(p Placement, ths []int) int {
	n := 0
	for k, ti := range ths {
		seen := false
		for _, tj := range ths[:k] {
			if p.Profiles[tj].Benchmark == p.Profiles[ti].Benchmark {
				seen = true
				break
			}
		}
		if !seen {
			n++
		}
	}
	return n
}

// residual returns the iteration's largest relative change of any damped
// state variable. A class's threads all changed by the same amount.
func (s *Solver) residual(prevMemLat, memLat float64) float64 {
	r := relChange(prevMemLat, memLat)
	for k := range s.rate {
		r = math.Max(r, relChange(s.prevRate[k], s.rate[k]))
		r = math.Max(r, relChange(s.prevLLC[k], s.llcShare[k]))
		r = math.Max(r, relChange(s.prevL1D[k], s.l1dShare[k]))
		r = math.Max(r, relChange(s.prevL2[k], s.l2Share[k]))
	}
	return r
}

// unchanged reports whether the iteration left every damped state variable
// exactly as it found it.
func (s *Solver) unchanged(prevMemLat, memLat float64) bool {
	return prevMemLat == memLat &&
		slices.Equal(s.prevRate, s.rate) && slices.Equal(s.prevLLC, s.llcShare) &&
		slices.Equal(s.prevL1D, s.l1dShare) && slices.Equal(s.prevL2, s.l2Share)
}

// shareCaches distributes the core-private data-cache capacities among the
// threads on one class of cores, weighted by each thread's allocation rate
// into the cache (misses per ns), with a floor so no thread is starved to
// zero. Without SMT each time-shared thread uses the full capacity during
// its slice.
func (s *Solver) shareCaches(p Placement, cc *coreClass, f float64) {
	core := &p.Design.Cores[cc.core]
	l1dShare, l2Share := s.l1dShare, s.l2Share
	n := len(cc.seq)
	if !p.Design.SMTEnabled || n == 1 {
		for k := cc.lo; k < cc.hi; k++ {
			l1dShare[k] = float64(core.L1D.SizeBytes)
			l2Share[k] = float64(core.L2.SizeBytes)
		}
		return
	}
	// Allocation weights: misses into L1D per ns approximate occupancy
	// pressure at every private level. A class's L1D share has not moved
	// since the previous iteration looked its miss ratio up; the first
	// iteration seeds an equal split.
	w := scratch(s.cacheW, len(s.prof))
	s.cacheW = w
	for k := cc.lo; k < cc.hi; k++ {
		miss := s.mL1[k]
		if l1dShare[k] == 0 {
			miss = s.prof[k].DataMissAt(float64(core.L1D.SizeBytes) / float64(n))
		}
		w[k] = s.inv[k].DataPerUop * miss * s.rate[k]
	}
	sum := sumOver(w, cc.seq)
	floor := 0.08 / float64(n)
	for k := cc.lo; k < cc.hi; k++ {
		var frac float64
		if sum > 1e-15 {
			frac = w[k] / sum
		} else {
			frac = 1 / float64(n)
		}
		frac = math.Max(frac, floor)
		l1dShare[k] = damp(l1dShare[k], frac*float64(core.L1D.SizeBytes), f)
		l2Share[k] = damp(l2Share[k], frac*float64(core.L2.SizeBytes), f)
	}
	normalize(l1dShare, cc.seq, cc.lo, cc.hi, float64(core.L1D.SizeBytes))
	normalize(l2Share, cc.seq, cc.lo, cc.hi, float64(core.L2.SizeBytes))
}
