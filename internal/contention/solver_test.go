package contention

import (
	"math"
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/machstats"
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
// slice and per-core buffers inside every iteration).
func TestSolverSteadyStateAllocs(t *testing.T) {
	machstats.Disable()
	defer machstats.Disable()
	pl := place(t, "4B", true, "tonto", "gcc", "mcf", "hmmer", "soplex", "bzip2")
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
		t.Errorf("reused Solver allocates %.1f times per solve, want 0", allocs)
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
