package contention

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"slices"
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/interval"
	"smtflex/internal/machstats"
	"smtflex/internal/profiler"
	"smtflex/internal/workload"
)

// goldenUops is the profile fidelity of the golden grid, the same as the
// profiler's TestProfileBytesGolden: all 36 profiles measure in about a
// second and still exercise every curve segment the solver reaches.
const goldenUops = 4_000

// goldenThreadCounts spans one thread, sub-core counts, every design's core
// count neighbourhood and full SMT oversubscription.
var goldenThreadCounts = []int{1, 2, 3, 5, 8, 12, 17, 24}

// goldenModels are the solver variants the figures and ablations run,
// plus a positive tolerance whose early stops and ErrNotConverged
// diagnostics are hashed too.
var goldenModels = []Model{
	{},
	{EqualLLCShares: true},
	{FixedMemLatency: true},
	{FlatVisible: true},
	{IssueEfficiency: 0.9},
	{Tolerance: 1e-6},
}

// goldenSolveSHA256 is the SHA-256 over every float64 bit of SolveModel's
// results on the golden grid (nine designs × SMT on/off × goldenThreadCounts
// × one homogeneous and one heterogeneous mix × goldenModels), taken on
// amd64 from the solver as it stood before the solve-invariant split of
// interval.Profile.Evaluate and the shared curve lookups. A cheaper solver
// must reproduce it exactly; a deliberate change to what is simulated
// updates this constant and says why.
const goldenSolveSHA256 = "c2a9dcd1ff83743a362f00a9cc7df4b315400a43253799cbc389de8764f45265"

// goldenPlacements builds the grid's round-robin placements: thread i runs
// on core i mod cores, with its profile measured on that core's type. A
// 4k-µop run writes no line back, so each profile gets a synthetic
// writeback fraction (0, 0.1, 0.2 or 0.3 by benchmark) to make the traffic
// term's (1+WritebackFraction) factor carry bits.
func goldenPlacements(t *testing.T, visit func(label string, pl Placement)) {
	t.Helper()
	src := profiler.NewSource(goldenUops)
	names := workload.Names()
	profs := map[string]*interval.Profile{}
	prof := func(name string, ct config.CoreType) *interval.Profile {
		key := name + "/" + ct.String()
		if p, ok := profs[key]; ok {
			return p
		}
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := src.Profile(spec, ct)
		if err != nil {
			t.Fatal(err)
		}
		cp := *p
		cp.WritebackFraction = 0.1 * float64(slices.Index(names, name)%4)
		profs[key] = &cp
		return &cp
	}
	for _, smt := range []bool{true, false} {
		for di, d := range config.NineDesigns(smt) {
			for _, n := range goldenThreadCounts {
				homog := make([]string, n)
				for i := range homog {
					homog[i] = names[(di+n)%len(names)]
				}
				heterog := workload.HeterogeneousMixes(n, 1, 42)[0].Programs
				for _, progs := range [][]string{homog, heterog} {
					pl := Placement{Design: d}
					for i, name := range progs {
						c := i % d.NumCores()
						pl.CoreOf = append(pl.CoreOf, c)
						pl.Profiles = append(pl.Profiles, prof(name, d.Cores[c].Type))
					}
					visit(d.Name, pl)
				}
			}
		}
	}
}

// hashResult feeds every float64 bit of a solve's outcome into h.
func hashResult(h hash.Hash, res Result, err error) {
	var b [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	switch {
	case err == nil:
		u(0)
	case errors.Is(err, ErrNotConverged):
		u(1)
	default:
		u(2)
	}
	u(uint64(res.Diag.Iterations))
	f(res.Diag.Residual)
	if res.Diag.Converged {
		u(1)
	} else {
		u(0)
	}
	f(res.MemLatencyNs)
	f(res.BusUtilization)
	for _, c := range res.CoreUtilization {
		f(c)
	}
	for _, th := range res.Threads {
		st, sh := th.Stack, th.Shares
		for _, v := range [...]float64{
			st.Base, st.Branch, st.ICache, st.L2, st.LLC, st.Mem,
			th.IPC, th.TimeShare, th.UopsPerNs,
			sh.L1I, sh.L1D, sh.L2, sh.LLC, sh.MemLatencyCycles,
		} {
			f(v)
		}
	}
}

// TestSolveBitsGolden pins the solver's arithmetic, not just its
// self-consistency: TestSolverReuseBitIdenticalNineDesigns compares the
// solver with itself, so a reordered sum would pass it. Every model variant
// runs on one reused Solver, as the study's workers do.
func TestSolveBitsGolden(t *testing.T) {
	machstats.Disable()
	defer machstats.Disable()
	h := sha256.New()
	s := NewSolver()
	var solves, early, notConverged int
	goldenPlacements(t, func(label string, pl Placement) {
		for _, m := range goldenModels {
			res, err := s.SolveModel(pl, m)
			if err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatalf("%s n=%d %+v: %v", label, len(pl.CoreOf), m, err)
			}
			hashResult(h, res, err)
			solves++
			if m.Tolerance > 0 {
				if err != nil {
					notConverged++
				} else if res.Diag.Iterations < iterations {
					early++
				}
			}
		}
	})
	if early == 0 || notConverged == 0 {
		t.Fatalf("tolerance case must both stop early and exhaust its budget: %d early, %d not converged", early, notConverged)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSolveSHA256 {
		t.Fatalf("solver bits changed over %d solves: SHA-256 %s, want %s", solves, got, goldenSolveSHA256)
	}
}

// TestCanonicalModelSolvesLikeDefault: Canonical folds exactly the models
// that spell out a default, and each of them solves every golden placement
// bit-identically to the default model — what lets the study key sweeps,
// cells and fingerprints by the canonical model. Settings that change the
// arithmetic (or, for a tolerance, the stopping rule) stay as written.
func TestCanonicalModelSolvesLikeDefault(t *testing.T) {
	spelled := []Model{
		{IssueEfficiency: interval.SMTIssueEfficiency},
		{MaxIterations: iterations},
		{Damping: damping},
	}
	for _, m := range spelled {
		if got := m.Canonical(); got != DefaultModel() {
			t.Errorf("%+v: Canonical() = %+v, want the default model", m, got)
		}
	}
	for _, m := range []Model{{IssueEfficiency: 0.9}, {Tolerance: 1e-6}, {EqualLLCShares: true}, {MaxIterations: 30}} {
		if got := m.Canonical(); got != m {
			t.Errorf("%+v: Canonical() = %+v, want it unchanged", m, got)
		}
	}

	machstats.Disable()
	defer machstats.Disable()
	s := NewSolver()
	sum := func(pl Placement, m Model) string {
		h := sha256.New()
		res, err := s.SolveModel(pl, m)
		hashResult(h, res, err)
		return hex.EncodeToString(h.Sum(nil))
	}
	goldenPlacements(t, func(label string, pl Placement) {
		want := sum(pl, DefaultModel())
		for _, m := range spelled {
			if got := sum(pl, m); got != want {
				t.Fatalf("%s n=%d: %+v solves differently from the default model", label, len(pl.CoreOf), m)
			}
		}
	})
}
