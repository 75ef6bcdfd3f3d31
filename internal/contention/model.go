package contention

import (
	"slices"

	"smtflex/internal/interval"
)

// Model selects between the solver's default mechanisms and simplified
// alternatives, enabling ablation studies of the modelling choices: LLC
// capacity partitioning policy, memory queueing, window-dependent visible
// latency and SMT issue efficiency.
type Model struct {
	// EqualLLCShares replaces allocation-weighted LLC competition with an
	// equal split across threads.
	EqualLLCShares bool
	// FixedMemLatency disables bus/bank queueing: every access sees the
	// uncontended DRAM latency regardless of load.
	FixedMemLatency bool
	// FlatVisible disables the window-dependent visible-latency fraction:
	// SMT ROB partitioning then no longer increases exposed memory latency.
	FlatVisible bool
	// IssueEfficiency overrides interval.SMTIssueEfficiency when positive.
	IssueEfficiency float64
	// MaxIterations caps the fixed-point iteration count; zero selects the
	// calibrated default (60).
	MaxIterations int
	// Tolerance is the relative-residual threshold for early termination.
	// Zero (the default) keeps results bit-identical to the fixed-iteration
	// solver: the loop stops early only when an iteration changes nothing at
	// all, and running out of iterations is not an error. A positive tolerance
	// stops as soon as the residual drops below it and turns exhaustion into
	// ErrNotConverged.
	Tolerance float64
	// Damping overrides the fixed-point blend factor in (0,1); zero selects
	// the calibrated default (0.5).
	Damping float64
}

// DefaultModel returns the calibrated configuration used by Solve.
func DefaultModel() Model { return Model{} }

// Canonical returns m with every field that selects what its zero value
// selects set to zero — an IssueEfficiency of interval.SMTIssueEfficiency,
// a MaxIterations of the default cap, a Damping of the default blend — so
// two models that solve bit-identically print identically. Cache keys and
// fingerprints render the canonical model.
func (m Model) Canonical() Model {
	if m.effIssue() == interval.SMTIssueEfficiency {
		m.IssueEfficiency = 0
	}
	if m.maxIterations() == iterations {
		m.MaxIterations = 0
	}
	if m.dampFactor() == damping {
		m.Damping = 0
	}
	return m
}

// maxIterations returns the iteration cap the model selects.
func (m Model) maxIterations() int {
	if m.MaxIterations > 0 {
		return m.MaxIterations
	}
	return iterations
}

// dampFactor returns the fixed-point blend factor the model selects.
func (m Model) dampFactor() float64 {
	if m.Damping > 0 && m.Damping < 1 {
		return m.Damping
	}
	return damping
}

// effIssue returns the SMT issue efficiency the model selects.
func (m Model) effIssue() float64 {
	if m.IssueEfficiency > 0 {
		return m.IssueEfficiency
	}
	return interval.SMTIssueEfficiency
}

// memLatency returns the contended (or fixed) DRAM latency in ns.
func (m Model) memLatency(blocksPerNs, bandwidthGBps float64) float64 {
	if m.FixedMemLatency {
		return memLatencyNs(0, bandwidthGBps)
	}
	return memLatencyNs(blocksPerNs, bandwidthGBps)
}

// flatten returns a placement whose profiles ignore the window-dependent
// visible fraction when the model asks for it. Each distinct profile is
// copied once, so threads that shared a profile still share one and stay
// in one class.
func (m Model) flatten(p Placement) Placement {
	if !m.FlatVisible {
		return p
	}
	out := p
	out.Profiles = make([]*interval.Profile, len(p.Profiles))
	for i, prof := range p.Profiles {
		if j := slices.Index(p.Profiles[:i], prof); j >= 0 {
			out.Profiles[i] = out.Profiles[j]
			continue
		}
		cp := *prof
		cp.VisibleMin = 0
		cp.VisibleMinWindow = 0
		out.Profiles[i] = &cp
	}
	return out
}
