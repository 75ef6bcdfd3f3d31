package contention

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/interval"
	"smtflex/internal/machstats"
	"smtflex/internal/workload"
)

// resultBitsEqual compares every float64 of two Results bit for bit.
func resultBitsEqual(t *testing.T, label string, a, b Result) {
	t.Helper()
	eq := func(field string, x, y float64) {
		t.Helper()
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("%s: %s differs: %v (%x) vs %v (%x)", label, field, x, math.Float64bits(x), y, math.Float64bits(y))
		}
	}
	eq("MemLatencyNs", a.MemLatencyNs, b.MemLatencyNs)
	eq("BusUtilization", a.BusUtilization, b.BusUtilization)
	eq("Diag.Residual", a.Diag.Residual, b.Diag.Residual)
	if a.Diag.Iterations != b.Diag.Iterations || a.Diag.Converged != b.Diag.Converged {
		t.Errorf("%s: diagnostics differ: %+v vs %+v", label, a.Diag, b.Diag)
	}
	if len(a.Threads) != len(b.Threads) || len(a.CoreUtilization) != len(b.CoreUtilization) {
		t.Fatalf("%s: shape differs: %d/%d threads, %d/%d cores", label,
			len(a.Threads), len(b.Threads), len(a.CoreUtilization), len(b.CoreUtilization))
	}
	for i := range a.Threads {
		x, y := a.Threads[i], b.Threads[i]
		eq("IPC", x.IPC, y.IPC)
		eq("TimeShare", x.TimeShare, y.TimeShare)
		eq("UopsPerNs", x.UopsPerNs, y.UopsPerNs)
		eq("Stack.Base", x.Stack.Base, y.Stack.Base)
		eq("Stack.Branch", x.Stack.Branch, y.Stack.Branch)
		eq("Stack.ICache", x.Stack.ICache, y.Stack.ICache)
		eq("Stack.L2", x.Stack.L2, y.Stack.L2)
		eq("Stack.LLC", x.Stack.LLC, y.Stack.LLC)
		eq("Stack.Mem", x.Stack.Mem, y.Stack.Mem)
		eq("Shares.L1I", x.Shares.L1I, y.Shares.L1I)
		eq("Shares.L1D", x.Shares.L1D, y.Shares.L1D)
		eq("Shares.L2", x.Shares.L2, y.Shares.L2)
		eq("Shares.LLC", x.Shares.LLC, y.Shares.LLC)
		eq("Shares.MemLatencyCycles", x.Shares.MemLatencyCycles, y.Shares.MemLatencyCycles)
	}
	for c := range a.CoreUtilization {
		eq("CoreUtilization", a.CoreUtilization[c], b.CoreUtilization[c])
	}
}

// TestSolverReuseBitIdenticalNineDesigns: a single Solver reused across
// every design must reproduce the fresh-per-call package Solve bit for bit —
// the scratch-buffer refactor may only change buffer lifetimes, never
// numbers. Runs both a 2-thread and an oversubscribed 6-thread placement on
// each of the paper's nine design points.
func TestSolverReuseBitIdenticalNineDesigns(t *testing.T) {
	benches := []string{"tonto", "gcc", "mcf", "hmmer", "soplex", "bzip2"}
	s := NewSolver()
	for _, d := range config.NineDesigns(true) {
		for _, n := range []int{2, 6} {
			pl := place(t, d.Name, true, benches[:n]...)
			fresh, err := Solve(pl)
			if err != nil {
				t.Fatalf("%s n=%d: fresh solve: %v", d.Name, n, err)
			}
			reused, err := s.Solve(pl)
			if err != nil {
				t.Fatalf("%s n=%d: reused solve: %v", d.Name, n, err)
			}
			resultBitsEqual(t, d.Name, fresh, reused)
		}
	}
}

// TestSolverSteadyStateAllocs locks in the hot-path allocation fixes: a
// reused Solver must not allocate at all at steady state — not per solve and
// in particular not per iteration (the seed engine rebuilt its LLC weights
// slice and per-core buffers inside every iteration). It runs a placement
// of distinct programs and a homogeneous one, whose threads share classes.
func TestSolverSteadyStateAllocs(t *testing.T) {
	machstats.Disable()
	defer machstats.Disable()
	for _, pl := range []Placement{
		place(t, "4B", true, "tonto", "gcc", "mcf", "hmmer", "soplex", "bzip2"),
		place(t, "3B5s", true, cycle(24, "mcf")...),
	} {
		s := NewSolver()
		m := DefaultModel()
		if _, err := s.SolveModel(pl, m); err != nil { // warm the scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.SolveModel(pl, m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s, %d threads: reused Solver allocates %.1f times per solve, want 0",
				pl.Design.Name, len(pl.CoreOf), allocs)
		}
	}
}

// cycle returns n thread programs that repeat benches in order.
func cycle(n int, benches ...string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = benches[i%len(benches)]
	}
	return out
}

// TestSolveClassesMatchUnmerged is the oracle for the solver's thread
// classes. Class membership is by profile pointer, so giving every thread
// its own copy of its profile disables merging and leaves every value the
// same. Each placement is solved both ways under every golden model, and
// every float64 bit, the diagnostics and the error must agree. The
// placements cover what the golden grid's round-robin ones do not; classes
// pins how many classes the shared-pointer solve finds.
func TestSolveClassesMatchUnmerged(t *testing.T) {
	machstats.Disable()
	defer machstats.Disable()
	design := func(name string, smt bool) config.Design {
		d, err := config.DesignByName(name, smt)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	on := func(d config.Design, coreOf []int, benches ...string) Placement {
		pl := Placement{Design: d, CoreOf: coreOf}
		for i, b := range benches {
			pl.Profiles = append(pl.Profiles, profileFor(t, b, d.Cores[coreOf[i]].Type))
		}
		return pl
	}
	turbo := design("4B", true)
	turbo.Cores = slices.Clone(turbo.Cores)
	turbo.Cores[1].FrequencyGHz *= 1.35
	cases := []struct {
		name    string
		pl      Placement
		classes int
	}{
		// Cores 1 and 2 are equal, but the class's first thread runs on 2.
		{"core order", on(design("4B", true), []int{2, 0, 2, 0, 1, 3, 1, 3},
			"mcf", "gcc", "mcf", "gcc", "mcf", "gcc", "mcf", "gcc"), 2},
		{"equal cores apart", on(design("4B", true), []int{0, 0, 1, 2, 2, 3},
			"mcf", "gcc", "gcc", "mcf", "gcc", "tonto"), 4},
		// Cores 0 and 2 hold [mcf,gcc], core 1 [gcc,mcf]: not equal to them.
		{"same programs, other order", on(design("4B", true), []int{0, 0, 1, 1, 2, 2},
			"mcf", "gcc", "gcc", "mcf", "mcf", "gcc"), 4},
		// Equal programs on cores of one type at two frequencies.
		{"turbo core", on(turbo, []int{0, 0, 1, 1}, "mcf", "gcc", "mcf", "gcc"), 4},
		{"time sharing", place(t, "4B", false, cycle(12, "mcf", "gcc")...), 2},
		{"oversubscribed", place(t, "4B", true, cycle(30, "mcf", "gcc", "hmmer")...), 12},
		// Small cores 3 and 7 both run mcf alone.
		{"heterogeneous repeats", place(t, "3B5s", true,
			"mcf", "gcc", "tonto", "mcf", "soplex", "gcc", "libquantum", "mcf", "hmmer", "bzip2"), 9},
		{"sampled heterogeneous", place(t, "3B5s", true, workload.HeterogeneousMixes(24, 1, 7)[0].Programs...), -1},
	}
	merged, unmerged := NewSolver(), NewSolver()
	notConverged := 0
	for _, c := range cases {
		own := c.pl
		own.Profiles = make([]*interval.Profile, len(c.pl.Profiles))
		for i, p := range c.pl.Profiles {
			cp := *p
			own.Profiles[i] = &cp
		}
		for _, m := range goldenModels {
			label := fmt.Sprintf("%s %+v", c.name, m)
			a, errA := merged.SolveModel(c.pl, m)
			if n := len(merged.prof); c.classes >= 0 && n != c.classes {
				t.Errorf("%s: %d classes, want %d", label, n, c.classes)
			}
			b, errB := unmerged.SolveModel(own, m)
			if n := len(unmerged.prof); n != len(own.CoreOf) {
				t.Errorf("%s: per-thread copies make %d classes, want one per thread (%d)", label, n, len(own.CoreOf))
			}
			if fmt.Sprint(errA) != fmt.Sprint(errB) {
				t.Fatalf("%s: errors differ: %v vs %v", label, errA, errB)
			}
			if errA != nil && !errors.Is(errA, ErrNotConverged) {
				t.Fatalf("%s: %v", label, errA)
			}
			if errA != nil {
				notConverged++
			}
			resultBitsEqual(t, label, a, b)
		}
	}
	if notConverged == 0 {
		t.Error("no solve ran out of iterations: the ErrNotConverged diagnostics went unchecked")
	}
}

// TestSolveIterationAllocsFlat: even through the fresh-solver package API,
// allocations must not scale with iteration count — per-call scratch is
// fixed, per-iteration cost is zero.
func TestSolveIterationAllocsFlat(t *testing.T) {
	machstats.Disable()
	defer machstats.Disable()
	pl := place(t, "4B", true, "tonto", "gcc", "mcf", "hmmer")
	allocsAt := func(iters int) float64 {
		m := Model{MaxIterations: iters}
		return testing.AllocsPerRun(10, func() {
			if _, err := SolveModel(pl, m); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, sixty := allocsAt(1), allocsAt(60)
	if sixty > one {
		t.Errorf("allocations scale with iterations: %v at 1 iter, %v at 60", one, sixty)
	}
}
