package contention

import (
	"context"
	"fmt"
	"math"
	"slices"

	"smtflex/internal/config"
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
type Solver struct {
	// Per-core thread groups; group backing slices are reused across solves.
	group [][]int
	// Fixed-point state, one entry per thread.
	rate, llcShare, l1dShare, l2Share, l1iShare []float64
	// Previous-iteration state for the convergence test.
	prevRate, prevLLC, prevL1D, prevL2 []float64
	// weights holds the LLC allocation weights (hoisted out of the
	// iteration loop — the seed engine rebuilt it every iteration).
	weights []float64
	// inv holds each thread's solve-invariant evaluation terms.
	inv []interval.Invariant
	// mL1, mL2 and mLLC are each thread's raw data miss ratios at its
	// L1D, L1D+L2 and L1D+L2+LLC capacities in the current iteration.
	mL1, mL2, mLLC []float64
	// cacheW and ipcs are the per-core inner-loop buffers.
	cacheW, ipcs []float64
	// threads and coreUtil back the returned Result.
	threads  []ThreadResult
	coreUtil []float64
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

// growF returns buf with length n and every element zeroed, reusing the
// backing array when it is large enough.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// scratch returns buf with length n and unspecified contents (every caller
// writes before reading), reusing the backing array when possible.
func scratch[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// prepare sizes the solver's state for n threads on nCores cores.
func (s *Solver) prepare(n, nCores int) {
	if cap(s.group) < nCores {
		g := make([][]int, nCores)
		copy(g, s.group)
		s.group = g
	}
	s.group = s.group[:nCores]
	for c := range s.group {
		s.group[c] = s.group[c][:0]
	}
	s.rate = scratch(s.rate, n)
	s.llcShare = growF(s.llcShare, n)
	s.l1dShare = growF(s.l1dShare, n)
	s.l2Share = growF(s.l2Share, n)
	s.l1iShare = scratch(s.l1iShare, n)
	s.prevRate = scratch(s.prevRate, n)
	s.prevLLC = scratch(s.prevLLC, n)
	s.prevL1D = scratch(s.prevL1D, n)
	s.prevL2 = scratch(s.prevL2, n)
	s.weights = scratch(s.weights, n)
	s.inv = scratch(s.inv, n)
	s.mL1 = scratch(s.mL1, n)
	s.mL2 = scratch(s.mL2, n)
	s.mLLC = scratch(s.mLLC, n)
	if cap(s.threads) < n {
		s.threads = make([]ThreadResult, n)
	}
	s.threads = s.threads[:n]
	for i := range s.threads {
		s.threads[i] = ThreadResult{}
	}
	s.coreUtil = growF(s.coreUtil, nCores)
}

// SolveModel iterates to a fixed point with explicit model choices. The
// arithmetic and iteration order are exactly the seed engine's — results are
// bit-identical — but each iteration does only the work that can change:
// a thread's core, ROB partition and I-cache share are fixed by the
// placement, so their evaluation terms are computed once per solve (see
// interval.Invariant), and each data-curve lookup is made once per
// iteration and shared by every step that reads it.
func (s *Solver) SolveModel(p Placement, m Model) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	p = m.flatten(p)
	n := len(p.CoreOf)
	s.prepare(n, len(p.Design.Cores))
	res := Result{
		Threads:         s.threads,
		CoreUtilization: s.coreUtil,
	}
	if n == 0 {
		res.MemLatencyNs = m.memLatency(0, p.Design.MemBandwidthGBps)
		res.Diag.Converged = true
		return res, nil
	}

	// Per-core thread groups.
	cores := p.Design.Cores
	group := s.group
	for i, c := range p.CoreOf {
		group[c] = append(group[c], i)
	}
	s.setInvariants(p)

	// State: absolute rates (µops/ns), initialized optimistically.
	rate := s.rate
	for i, c := range p.CoreOf {
		cc := &cores[c]
		rate[i] = float64(cc.Width) * cc.FrequencyGHz / 2
	}
	llcShare := s.llcShare
	l1dShare := s.l1dShare
	l2Share := s.l2Share
	inv, mL1, mL2, mLLC := s.inv, s.mL1, s.mL2, s.mLLC

	llcBytes := float64(p.Design.LLC.SizeBytes)
	memLatNs := m.memLatency(0, p.Design.MemBandwidthGBps)

	f := m.dampFactor()
	maxIter := m.maxIterations()
	weights := s.weights

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
		for c, ths := range group {
			s.shareCaches(p, ths, &cores[c], f)
		}

		// --- LLC shares across all threads (allocation-weighted) ---
		// The private shares are final for this iteration, so the L1D and
		// L1D+L2 lookups made here serve the CPI stacks below as well.
		var wsum float64
		for i := range weights {
			prof := p.Profiles[i]
			mL1[i] = prof.DataMissAt(l1dShare[i])
			mL2[i] = prof.DataMissAt(l1dShare[i] + l2Share[i])
			weights[i] = inv[i].DataPerUop * mL2[i] * rate[i]
			wsum += weights[i]
		}
		floor := 0.05 / float64(n)
		for i := range weights {
			var frac float64
			switch {
			case m.EqualLLCShares:
				frac = 1 / float64(n)
			case wsum > 1e-15:
				frac = weights[i] / wsum
			default:
				frac = 1 / float64(n)
			}
			frac = math.Max(frac, floor)
			llcShare[i] = damp(llcShare[i], frac*llcBytes, f)
		}
		normalizeShares(llcShare, llcBytes)

		// --- Memory traffic and latency (fills plus writebacks) ---
		var traffic float64 // blocks per ns
		for i := range rate {
			prof := p.Profiles[i]
			mLLC[i] = prof.DataMissAt(l1dShare[i] + l2Share[i] + llcShare[i])
			traffic += inv[i].DataPerUop * mLLC[i] * (1 + prof.WritebackFraction) * rate[i]
		}
		memLatNs = damp(memLatNs, m.memLatency(traffic, p.Design.MemBandwidthGBps), f)
		memLatNs = faults.Corrupt(faults.SiteSolver, memLatNs)

		// --- Per-thread CPI and per-core width/time sharing ---
		for c, ths := range group {
			if len(ths) == 0 {
				continue
			}
			cc := &cores[c]
			ipcs := scratch(s.ipcs, len(ths))
			s.ipcs = ipcs
			coRunners, tshare := smtOccupancy(cc, p.Design.SMTEnabled, len(ths))
			memLatCycles := memLatNs * cc.FrequencyGHz
			for k, ti := range ths {
				st := &res.Threads[ti].Stack
				*st = inv[ti].Stack(mL1[ti], mL2[ti], mLLC[ti], memLatCycles)
				ipcs[k] = 1 / st.Total()
			}
			if p.Design.SMTEnabled && coRunners > 1 {
				interval.ShareWidthEff(ipcs, cc.Width, m.effIssue())
			}
			for k, ti := range ths {
				res.Threads[ti].IPC = ipcs[k]
				res.Threads[ti].TimeShare = tshare
				rate[ti] = damp(rate[ti], ipcs[k]*tshare*cc.FrequencyGHz, f)
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

	// Finalize. The last iteration's L1D+L2+LLC lookup is the final
	// shares' DRAM miss ratio.
	var traffic float64
	for i, c := range p.CoreOf {
		cc := &cores[c]
		th := &res.Threads[i]
		th.UopsPerNs = rate[i]
		th.Shares = interval.Shares{
			L1I: s.l1iShare[i], L1D: l1dShare[i], L2: l2Share[i], LLC: llcShare[i],
			MemLatencyCycles: memLatNs * cc.FrequencyGHz,
		}
		res.CoreUtilization[c] += th.IPC * th.TimeShare / float64(cc.Width)
		traffic += inv[i].DataPerUop * mLLC[i] * (1 + p.Profiles[i].WritebackFraction) * rate[i]
	}
	res.MemLatencyNs = memLatNs
	res.BusUtilization = math.Min(traffic*blockBytes/p.Design.MemBandwidthGBps, 1)
	publishMachStats(p, res)
	return res, nil
}

// setInvariants fixes each thread's I-cache share and computes its
// solve-invariant evaluation terms at its core's ROB partition. The I-cache
// is shared by *code*, not by thread: co-runners executing the same
// benchmark fetch the same instructions, so on an SMT core the capacity
// splits across distinct benchmarks, not across threads. Without SMT each
// time-shared thread uses the full capacity during its slice.
func (s *Solver) setInvariants(p Placement) {
	smt := p.Design.SMTEnabled
	for c, ths := range s.group {
		if len(ths) == 0 {
			continue
		}
		cc := &p.Design.Cores[c]
		coRunners, _ := smtOccupancy(cc, smt, len(ths))
		part := interval.Partition(*cc, coRunners)
		iShare := float64(cc.L1I.SizeBytes)
		if smt && len(ths) > 1 {
			iShare /= float64(distinctBenchmarks(p, ths))
		}
		for _, ti := range ths {
			s.l1iShare[ti] = iShare
			s.inv[ti] = p.Profiles[ti].Invariant(cc, part, iShare)
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
// state variable.
func (s *Solver) residual(prevMemLat, memLat float64) float64 {
	r := relChange(prevMemLat, memLat)
	for i := range s.rate {
		r = math.Max(r, relChange(s.prevRate[i], s.rate[i]))
		r = math.Max(r, relChange(s.prevLLC[i], s.llcShare[i]))
		r = math.Max(r, relChange(s.prevL1D[i], s.l1dShare[i]))
		r = math.Max(r, relChange(s.prevL2[i], s.l2Share[i]))
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
// threads on one core, weighted by each thread's allocation rate into the
// cache (misses per ns), with a floor so no thread is starved to zero.
// Without SMT each time-shared thread uses the full capacity during its
// slice.
func (s *Solver) shareCaches(p Placement, ths []int, cc *config.Core, f float64) {
	if len(ths) == 0 {
		return
	}
	l1dShare, l2Share := s.l1dShare, s.l2Share
	if !p.Design.SMTEnabled || len(ths) == 1 {
		for _, ti := range ths {
			l1dShare[ti] = float64(cc.L1D.SizeBytes)
			l2Share[ti] = float64(cc.L2.SizeBytes)
		}
		return
	}
	// Allocation weights: misses into L1D per ns approximate occupancy
	// pressure at every private level. A thread's L1D share has not moved
	// since the previous iteration looked its miss ratio up; the first
	// iteration seeds an equal split.
	n := len(ths)
	w := scratch(s.cacheW, n)
	s.cacheW = w
	var sum float64
	for k, ti := range ths {
		miss := s.mL1[ti]
		if l1dShare[ti] == 0 {
			miss = p.Profiles[ti].DataMissAt(float64(cc.L1D.SizeBytes) / float64(n))
		}
		w[k] = s.inv[ti].DataPerUop * miss * s.rate[ti]
		sum += w[k]
	}
	floor := 0.08 / float64(n)
	for k, ti := range ths {
		var frac float64
		if sum > 1e-15 {
			frac = w[k] / sum
		} else {
			frac = 1 / float64(n)
		}
		frac = math.Max(frac, floor)
		l1dShare[ti] = damp(l1dShare[ti], frac*float64(cc.L1D.SizeBytes), f)
		l2Share[ti] = damp(l2Share[ti], frac*float64(cc.L2.SizeBytes), f)
	}
	normalizeSlice(l1dShare, ths, float64(cc.L1D.SizeBytes))
	normalizeSlice(l2Share, ths, float64(cc.L2.SizeBytes))
}
