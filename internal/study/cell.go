package study

import (
	"fmt"
	"strings"

	"smtflex/internal/config"
	"smtflex/internal/interval"
	"smtflex/internal/metrics"
	"smtflex/internal/workload"
)

// The cell layer: a sweep decomposed into its independently evaluable
// (thread count, mix) cells, with canonical content keys. This is the unit
// the cluster fabric (internal/cluster) shards across workers; keeping the
// decomposition, the per-cell evaluation (EvaluateMixCtx) and the
// reassembly (AssembleSweep) in this package guarantees a distributed sweep
// is built from exactly the code paths the single-process engine uses — the
// basis of the fleet's bit-identical-tables contract.

// SweepMixes materializes the sweep grid for a workload kind: mixes[n] lists
// the mixes evaluated at thread count n (1-based; mixes[0] is nil), each
// inner list nMixes long. It errors if the mix count is not uniform across
// thread counts, the invariant the sweep tables are indexed by.
func (s *Study) SweepMixes(k Kind) (mixes [][]workload.Mix, nMixes int, err error) {
	nMixes = len(s.mixesAt(k, 1))
	mixes = make([][]workload.Mix, MaxThreads+1)
	for n := 1; n <= MaxThreads; n++ {
		mixes[n] = s.mixesAt(k, n)
		if len(mixes[n]) != nMixes {
			return nil, 0, fmt.Errorf("study: mix count changed from %d to %d at n=%d", nMixes, len(mixes[n]), n)
		}
	}
	return mixes, nMixes, nil
}

// CellKey returns the canonical content key of one sweep cell: every input
// that determines the cell's result — the design's configuration (name, SMT,
// bandwidth), the workload kind, the model options, the profiling length,
// the thread count and the mix's exact program list — rendered in a fixed
// field order with no map iteration or pointer identity, so independent
// processes derive identical keys. memo.KeyHash(CellKey(...)) is the
// fleet-wide content address of the cell's result.
func (s *Study) CellKey(d config.Design, k Kind, n int, mix workload.Mix) string {
	return fmt.Sprintf("%s|uops=%d|n=%d|progs=%s",
		s.sweepKey(d, k), s.profileUops(), n, strings.Join(mix.Programs, ","))
}

// Fingerprint summarizes the engine configuration that must match across a
// fleet for cell results to be interchangeable: profiling length, mix
// construction parameters and model options (in canonical form, like the
// cell key). A worker rejects cells from a coordinator whose fingerprint
// differs from its own, turning a misconfigured fleet into a loud error
// instead of silently mixed tables.
func (s *Study) Fingerprint() string {
	return fmt.Sprintf("uops=%d|mixes=%d|seed=%d|model=%+v",
		s.profileUops(), s.MixesPerCount, s.Seed, s.Model.Canonical())
}

// profileUops returns the profiling source's measurement length, the
// engine-side knob that changes every profile (and so every result).
func (s *Study) profileUops() uint64 {
	if s.Src == nil {
		return 0
	}
	return s.Src.UopCount
}

// AssembleSweep builds the sweep tables from the per-cell results, exactly
// as the single-process engine does: results[n-1][mi] is the evaluation of
// mixes[n][mi]. Both the local pool path and the cluster coordinator feed
// this one function, so reassembled distributed sweeps are bit-for-bit
// identical to local ones by construction.
func AssembleSweep(d config.Design, k Kind, mixes [][]workload.Mix, results [][]MixResult) (*Sweep, error) {
	nMixes := len(mixes[1])
	sw := &Sweep{Design: d, Kind: k}
	sw.ByMix = make([][MaxThreads]float64, nMixes)
	for _, m := range mixes[1] {
		name := m.ID
		if k == Homogeneous {
			name = m.Programs[0]
		}
		sw.MixNames = append(sw.MixNames, name)
	}

	sw.SolverConverged = true
	for n := 1; n <= MaxThreads; n++ {
		stps := make([]float64, nMixes)
		antts := make([]float64, nMixes)
		watts := make([]float64, nMixes)
		var stackSum interval.CPIStack
		var stackCount int
		for mi := 0; mi < nMixes; mi++ {
			r := results[n-1][mi]
			stps[mi] = r.STP
			antts[mi] = r.ANTT
			watts[mi] = r.Watts
			sw.ByMix[mi][n-1] = r.STP
			for _, th := range r.Threads {
				stackSum.Base += th.Stack.Base
				stackSum.Branch += th.Stack.Branch
				stackSum.ICache += th.Stack.ICache
				stackSum.L2 += th.Stack.L2
				stackSum.LLC += th.Stack.LLC
				stackSum.Mem += th.Stack.Mem
				stackCount++
			}
			if r.Diag.Iterations > sw.SolverIterations {
				sw.SolverIterations = r.Diag.Iterations
			}
			if r.Diag.Residual > sw.SolverResidual {
				sw.SolverResidual = r.Diag.Residual
			}
			sw.SolverConverged = sw.SolverConverged && r.Diag.Converged
		}
		if stackCount > 0 {
			inv := 1 / float64(stackCount)
			sw.MeanStack[n-1] = interval.CPIStack{
				Base: stackSum.Base * inv, Branch: stackSum.Branch * inv,
				ICache: stackSum.ICache * inv, L2: stackSum.L2 * inv,
				LLC: stackSum.LLC * inv, Mem: stackSum.Mem * inv,
			}
		}
		h, err := metrics.HarmonicMean(stps)
		if err != nil {
			return nil, err
		}
		sw.STP[n-1] = h
		sw.ANTT[n-1] = metrics.Mean(antts)
		sw.Watts[n-1] = metrics.Mean(watts)
	}
	return sw, nil
}

// SweepKey exposes the sweep's cache key, from which the cluster
// coordinator derives the sweep ID its flight records carry.
func (s *Study) SweepKey(d config.Design, k Kind) string { return s.sweepKey(d, k) }
