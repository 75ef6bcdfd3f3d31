package sched

import (
	"sync"
	"testing"

	"smtflex/internal/contention"

	"smtflex/internal/config"
	"smtflex/internal/profiler"
	"smtflex/internal/workload"
)

var (
	srcOnce sync.Once
	src     *profiler.Source
)

func source() *profiler.Source {
	srcOnce.Do(func() { src = profiler.NewSource(60_000) })
	return src
}

func mix(benches ...string) workload.Mix {
	return workload.Mix{ID: "test", Programs: benches}
}

func homogMix(bench string, n int) workload.Mix {
	progs := make([]string, n)
	for i := range progs {
		progs[i] = bench
	}
	return mix(progs...)
}

func mustPlace(t *testing.T, design string, smt bool, m workload.Mix) (config.Design, []int) {
	t.Helper()
	d, err := config.DesignByName(design, smt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Place(d, m, source())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid placement: %v", err)
	}
	return d, p.CoreOf
}

func occupancy(coreOf []int, cores int) []int {
	occ := make([]int, cores)
	for _, c := range coreOf {
		occ[c]++
	}
	return occ
}

func TestSpreadBeforeSMT(t *testing.T) {
	// With as many threads as cores, every thread gets its own core.
	d, coreOf := mustPlace(t, "4B", true, homogMix("tonto", 4))
	occ := occupancy(coreOf, d.NumCores())
	for c, n := range occ {
		if n != 1 {
			t.Fatalf("core %d has %d threads: %v", c, occ, coreOf)
		}
	}
}

func TestBalancedSMTOverflow(t *testing.T) {
	// Eight identical threads on 4 big cores: 2 per core (no piling).
	d, coreOf := mustPlace(t, "4B", true, homogMix("hmmer", 8))
	occ := occupancy(coreOf, d.NumCores())
	for c, n := range occ {
		if n != 2 {
			t.Fatalf("core %d has %d threads, want 2: %v", c, n, occ)
		}
	}
}

func TestBigCoresFirst(t *testing.T) {
	// Fewer threads than cores on a heterogeneous design: the big cores
	// (lowest indices) fill before small ones.
	d, coreOf := mustPlace(t, "3B5s", true, homogMix("gcc", 3))
	occ := occupancy(coreOf, d.NumCores())
	for c := 0; c < 3; c++ {
		if occ[c] != 1 {
			t.Fatalf("big core %d empty: %v", c, occ)
		}
	}
	for c := 3; c < d.NumCores(); c++ {
		if occ[c] != 0 {
			t.Fatalf("small core %d used with big cores free: %v", c, occ)
		}
	}
}

func TestBigCoreSensitiveThreadGetsBigCore(t *testing.T) {
	// tonto gains far more from the big core than mcf does; with one big
	// core and both threads placed, tonto must land on it.
	d, coreOf := mustPlace(t, "1B15s", true, mix("mcf", "tonto"))
	_ = d
	tontoCore := coreOf[1]
	if tontoCore != 0 {
		t.Fatalf("tonto on core %d, want the big core 0 (mcf on %d)", tontoCore, coreOf[0])
	}
}

func TestProfilesMatchCoreTypes(t *testing.T) {
	d, err := config.DesignByName("2B10s", true)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Place(d, homogMix("soplex", 12), source())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range p.CoreOf {
		if p.Profiles[i].Core != d.Cores[c].Type {
			t.Fatalf("thread %d: profile for %v on %v core", i, p.Profiles[i].Core, d.Cores[c].Type)
		}
	}
}

func TestEmptyMixRejected(t *testing.T) {
	d, _ := config.DesignByName("4B", true)
	if _, err := Place(d, workload.Mix{ID: "empty"}, source()); err == nil {
		t.Fatal("empty mix accepted")
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	d, _ := config.DesignByName("4B", true)
	if _, err := Place(d, mix("quake3"), source()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestUnknownCoreTypeRejected(t *testing.T) {
	// Profiles and solo IPCs sit in tables indexed by core type, so a core
	// type outside the known set must fail the placement, not index past
	// the tables.
	d, _ := config.DesignByName("4B", true)
	d.Cores[3].Type = config.NumCoreTypes
	if _, err := Place(d, mix("hmmer"), source()); err == nil {
		t.Fatal("unknown core type accepted")
	}
}

func TestNoSMTTimeSharing(t *testing.T) {
	// 8 threads on 4 cores without SMT: time sharing, 2 per core.
	d, coreOf := mustPlace(t, "4B", false, homogMix("bzip2", 8))
	occ := occupancy(coreOf, d.NumCores())
	for c, n := range occ {
		if n != 2 {
			t.Fatalf("core %d has %d threads, want 2: %v", c, n, occ)
		}
	}
}

func TestFullChipPlacement(t *testing.T) {
	// 24 threads on every design: all threads placed, no core beyond its
	// context count by more than the inevitable time-sharing overflow.
	for _, name := range []string{"4B", "8m", "20s", "3B2m", "1B15s"} {
		d, coreOf := mustPlace(t, name, true, homogMix("gobmk", 24))
		occ := occupancy(coreOf, d.NumCores())
		total := 0
		for _, n := range occ {
			total += n
		}
		if total != 24 {
			t.Fatalf("%s: %d threads placed", name, total)
		}
	}
}

func TestHeterogeneousMixUsesSMTComplementarity(t *testing.T) {
	// Five threads on 4B: someone shares a core. The placement must still
	// give every thread a finite positive marginal estimate (no panic, all
	// cores valid).
	d, coreOf := mustPlace(t, "4B", true, mix("mcf", "tonto", "hmmer", "libquantum", "soplex"))
	occ := occupancy(coreOf, d.NumCores())
	max := 0
	for _, n := range occ {
		if n > max {
			max = n
		}
	}
	if max > 2 {
		t.Fatalf("5 threads on 4 cores should pair at most once: %v", occ)
	}
}

func TestPlaceRefinedNeverWorse(t *testing.T) {
	d, err := config.DesignByName("3B5s", true)
	if err != nil {
		t.Fatal(err)
	}
	m := mix("mcf", "tonto", "hmmer", "libquantum", "soplex", "gobmk")

	greedy, err := Place(d, m, source())
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := contention.Solve(greedy)
	if err != nil {
		t.Fatal(err)
	}
	var baseScore float64
	for _, th := range baseRes.Threads {
		baseScore += th.UopsPerNs
	}

	refined, score, err := PlaceRefined(d, m, source(), RefineBudget{MaxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := refined.Validate(); err != nil {
		t.Fatalf("refined placement invalid: %v", err)
	}
	if score < baseScore*0.999 {
		t.Fatalf("refinement regressed: %.4f -> %.4f", baseScore, score)
	}
}

func TestPlaceRefinedCustomObjective(t *testing.T) {
	d, _ := config.DesignByName("4B", true)
	m := homogMix("bzip2", 5)
	// Objective: fairness (max-min rate). Must still produce a valid result.
	_, score, err := PlaceRefined(d, m, source(), RefineBudget{
		MaxPasses: 1,
		Objective: func(r contention.Result) float64 {
			min := r.Threads[0].UopsPerNs
			for _, th := range r.Threads {
				if th.UopsPerNs < min {
					min = th.UopsPerNs
				}
			}
			return min
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 {
		t.Fatalf("fairness objective %g", score)
	}
}
