package profiler

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smtflex/internal/config"
	"smtflex/internal/interval"
	"smtflex/internal/trace"
	"smtflex/internal/workload"
)

var (
	srcOnce sync.Once
	shared  *Source
)

func source() *Source {
	srcOnce.Do(func() { shared = NewSource(60_000) })
	return shared
}

func spec(t *testing.T, name string) trace.Spec {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustProfile(t *testing.T, s *Source, sp trace.Spec, ct config.CoreType) *interval.Profile {
	t.Helper()
	p, err := s.Profile(sp, ct)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfileConcurrentMissesMeasureOnce(t *testing.T) {
	// Regression: the old check-then-compute cache let N concurrent misses
	// for the same key each run the full measurement. With singleflight
	// suppression exactly one measurement (and one curve pass) runs.
	s := NewSource(20_000)
	sp := spec(t, "tonto")
	const goroutines = 8
	var wg sync.WaitGroup
	profiles := make([]*interval.Profile, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := s.Profile(sp, config.Big)
			if err != nil {
				t.Error(err)
			}
			profiles[g] = p
		}(g)
	}
	wg.Wait()
	if n := s.measureRuns.Load(); n != 1 {
		t.Errorf("%d measurements for one key under concurrent access, want 1", n)
	}
	if n := s.curveRuns.Load(); n != 1 {
		t.Errorf("%d curve passes, want 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if profiles[g] != profiles[0] {
			t.Fatalf("goroutine %d got a different profile pointer", g)
		}
	}

	// Distinct core types share the curve pass but measure separately.
	s.Profile(sp, config.Small)
	if n, c := s.measureRuns.Load(), s.curveRuns.Load(); n != 2 || c != 1 {
		t.Errorf("after second core type: %d measurements (want 2), %d curve passes (want 1)", n, c)
	}
}

func TestProfileValidAndCached(t *testing.T) {
	s := source()
	p1 := mustProfile(t, s, spec(t, "tonto"), config.Big)
	if err := p1.Validate(); err != nil {
		t.Fatal(err)
	}
	p2 := mustProfile(t, s, spec(t, "tonto"), config.Big)
	if p1 != p2 {
		t.Fatal("profile not cached (pointer identity expected)")
	}
}

func TestBaseCPIWindowMonotone(t *testing.T) {
	// Base CPI never improves when the window shrinks.
	p := mustProfile(t, source(), spec(t, "calculix"), config.Big)
	for i := 1; i < len(p.BaseCPIs); i++ {
		if p.BaseCPIs[i] > p.BaseCPIs[i-1]+1e-9 {
			t.Fatalf("base CPI increased with window: %v @ %v", p.BaseCPIs, p.BaseWindows)
		}
	}
	if len(p.BaseWindows) < 4 {
		t.Fatalf("big core should sample several partitions, got %v", p.BaseWindows)
	}
}

func TestInOrderSingleWindow(t *testing.T) {
	p := mustProfile(t, source(), spec(t, "hmmer"), config.Small)
	if len(p.BaseWindows) != 1 {
		t.Fatalf("in-order core has %d windows", len(p.BaseWindows))
	}
	if p.VisibleMinWindow != 0 {
		t.Fatal("in-order core should not have a min-window calibration")
	}
}

func TestVisibleBounds(t *testing.T) {
	for _, name := range []string{"tonto", "mcf", "libquantum"} {
		for _, ct := range []config.CoreType{config.Big, config.Medium, config.Small} {
			p := mustProfile(t, source(), spec(t, name), ct)
			if p.Visible < 0 || p.Visible > 1 {
				t.Errorf("%s/%v: visible %g outside [0,1]", name, ct, p.Visible)
			}
			if p.MemConstCPI < 0 {
				t.Errorf("%s/%v: negative const CPI", name, ct)
			}
			if p.VisibleMin != 0 && p.VisibleMin < p.Visible-1e-9 {
				t.Errorf("%s/%v: smaller window hides more latency (%g < %g)",
					name, ct, p.VisibleMin, p.Visible)
			}
		}
	}
}

func TestMemoryBoundVsComputeBound(t *testing.T) {
	s := source()
	mcf := mustProfile(t, s, spec(t, "mcf"), config.Big)
	tonto := mustProfile(t, s, spec(t, "tonto"), config.Big)
	if mcf.BaselineMemCPI < 5*tonto.BaselineMemCPI {
		t.Fatalf("mcf (%.2f) should be far more memory bound than tonto (%.2f)",
			mcf.BaselineMemCPI, tonto.BaselineMemCPI)
	}
	sh := baselineShares(config.BigCore())
	if mcf.DRAMAccessesPerUop(sh) < 10*tonto.DRAMAccessesPerUop(sh) {
		t.Fatal("mcf DRAM traffic should dwarf tonto's")
	}
}

func TestBranchyBenchmarkHasBranchCPI(t *testing.T) {
	s := source()
	gobmk := mustProfile(t, s, spec(t, "gobmk"), config.Big)
	libq := mustProfile(t, s, spec(t, "libquantum"), config.Big)
	if gobmk.BrCPI < 5*libq.BrCPI {
		t.Fatalf("gobmk branch CPI %.3f should dwarf libquantum's %.3f",
			gobmk.BrCPI, libq.BrCPI)
	}
	if gobmk.BrMPKU < 5 {
		t.Fatalf("gobmk mispredicts %.1f/kµop too low", gobmk.BrMPKU)
	}
}

func TestCurvesSharedAcrossCoreTypes(t *testing.T) {
	// The reuse curves are a property of the benchmark, not the core.
	s := source()
	big := mustProfile(t, s, spec(t, "soplex"), config.Big)
	small := mustProfile(t, s, spec(t, "soplex"), config.Small)
	if len(big.DCurve.Ratios) != len(small.DCurve.Ratios) {
		t.Fatal("curve lengths differ")
	}
	for i := range big.DCurve.Ratios {
		if big.DCurve.Ratios[i] != small.DCurve.Ratios[i] {
			t.Fatal("data curves differ across core types")
		}
	}
}

func TestBigCoreFasterThanSmall(t *testing.T) {
	// Isolated performance ordering: big <= medium <= small CPI for every
	// benchmark (the premise of the design space).
	s := source()
	for _, name := range workload.Names() {
		sp := spec(t, name)
		var cpis [3]float64
		for i, ct := range []config.CoreType{config.Big, config.Medium, config.Small} {
			p := mustProfile(t, s, sp, ct)
			cc := config.CoreOfType(ct)
			cpis[i] = p.Evaluate(cc, fullWindow(cc), baselineShares(cc)).Total()
		}
		if cpis[0] > cpis[1]*1.02 || cpis[1] > cpis[2]*1.02 {
			t.Errorf("%s: CPI ordering violated: big %.2f medium %.2f small %.2f",
				name, cpis[0], cpis[1], cpis[2])
		}
	}
}

func TestCalibrationReproducesMeasuredCPI(t *testing.T) {
	// At the calibration point, the interval model must reproduce the
	// cycle-engine memory CPI (that is the definition of Visible).
	s := source()
	for _, name := range []string{"bzip2", "soplex", "gcc"} {
		p := mustProfile(t, s, spec(t, name), config.Big)
		cc := config.BigCore()
		st := p.Evaluate(cc, fullWindow(cc), baselineShares(cc))
		memModel := st.L2 + st.LLC + st.Mem
		if p.BaselineMemCPI > 0.05 {
			ratio := memModel / p.BaselineMemCPI
			if ratio < 0.9 || ratio > 1.1 {
				t.Errorf("%s: model mem CPI %.3f vs measured %.3f", name, memModel, p.BaselineMemCPI)
			}
		}
	}
}

func TestDefaultSource(t *testing.T) {
	s := NewSource(0)
	if s.UopCount == 0 || s.Warmup == 0 || s.CurveUops == 0 {
		t.Fatal("default source not initialized")
	}
}

func TestWritebackFractionBounded(t *testing.T) {
	// At this test source's short window the LLC may not fill (so the
	// fraction can legitimately be zero); the invariant is the bound.
	// Longer windows (the default source) produce positive fractions for
	// store-heavy DRAM-bound benchmarks, which the multicore tests verify
	// at the mechanism level.
	for _, name := range []string{"mcf", "hmmer", "libquantum"} {
		p := mustProfile(t, source(), spec(t, name), config.Big)
		if p.WritebackFraction < 0 || p.WritebackFraction > 1.5 {
			t.Fatalf("%s writeback fraction %g out of bounds", name, p.WritebackFraction)
		}
	}
}

// TestRecordingPerProfileIsDropped checks that a profile records its stream
// once, Warmup+UopCount µops long, and that nothing keeps the recording
// once the profile is done.
func TestRecordingPerProfileIsDropped(t *testing.T) {
	s := NewSource(3_000)
	var recorded, dropped atomic.Int32
	s.recorded = func(r *trace.Recording) {
		recorded.Add(1)
		if r.Len() != int(s.Warmup+s.UopCount) {
			t.Errorf("recording holds %d µops, want %d", r.Len(), s.Warmup+s.UopCount)
		}
		runtime.SetFinalizer(r, func(*trace.Recording) { dropped.Add(1) })
	}
	sp := spec(t, "gcc")
	mustProfile(t, s, sp, config.Big)
	mustProfile(t, s, sp, config.Small)
	mustProfile(t, s, sp, config.Big) // cached: no new recording
	if n := recorded.Load(); n != 2 {
		t.Fatalf("%d recordings for two profiles, want 2", n)
	}
	for deadline := time.Now().Add(5 * time.Second); dropped.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 recordings still reachable after their profiles", 2-dropped.Load())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	// The source itself stays live: only the recordings may go.
	runtime.KeepAlive(s)
}
