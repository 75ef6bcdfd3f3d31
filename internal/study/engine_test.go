package study

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/contention"
	"smtflex/internal/profiler"
)

// newEngineStudy builds a small-fidelity Study for engine tests: reduced
// UopCount and mix count keep the full campaign cheap enough to run twice.
func newEngineStudy(parallelism int) *Study {
	s := New(profiler.NewSource(20_000))
	s.MixesPerCount = 2
	s.Parallelism = parallelism
	return s
}

// TestParallelMatchesSerial is the engine's determinism contract: the
// parallel engine must produce bit-for-bit identical tables to the serial
// one, from cold caches, for a sweep and for a whole figure.
func TestParallelMatchesSerial(t *testing.T) {
	serial := newEngineStudy(1)
	parallel := newEngineStudy(8)

	d, err := config.DesignByName("2B4m", true)
	if err != nil {
		t.Fatal(err)
	}
	swSerial, err := serial.SweepDesign(context.Background(), d, Heterogeneous)
	if err != nil {
		t.Fatal(err)
	}
	swParallel, err := parallel.SweepDesign(context.Background(), d, Heterogeneous)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", swSerial) != fmt.Sprintf("%+v", swParallel) {
		t.Fatal("parallel sweep differs from serial sweep")
	}

	figSerial, err := serial.Figure8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	figParallel, err := parallel.Figure8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if figSerial.String() != figParallel.String() {
		t.Fatalf("parallel fig8 differs from serial fig8:\nserial:\n%s\nparallel:\n%s", figSerial, figParallel)
	}
	if figSerial.CSV() != figParallel.CSV() {
		t.Fatal("parallel fig8 CSV differs from serial")
	}
}

// TestSweepConcurrentMissesComputeOnce is the stampede regression test for
// the sweep cache: concurrent SweepDesign calls for one key compute once.
func TestSweepConcurrentMissesComputeOnce(t *testing.T) {
	s := newEngineStudy(0)
	d, err := config.DesignByName("20s", true)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	sweeps := make([]*Sweep, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sw, err := s.SweepDesign(context.Background(), d, Homogeneous)
			if err != nil {
				t.Error(err)
			}
			sweeps[g] = sw
		}(g)
	}
	wg.Wait()
	if n := s.sweepComputes.Load(); n != 1 {
		t.Errorf("%d sweep computations for one key under concurrent access, want 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if sweeps[g] != sweeps[0] {
			t.Fatalf("goroutine %d got a different sweep pointer", g)
		}
	}
}

// TestSoloRateConcurrentMissesComputeOnce covers the solo-rate cache.
func TestSoloRateConcurrentMissesComputeOnce(t *testing.T) {
	s := newEngineStudy(0)
	const goroutines = 8
	rates := make([]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := s.SoloRate("mcf")
			if err != nil {
				t.Error(err)
			}
			rates[g] = r
		}(g)
	}
	wg.Wait()
	if n := s.soloComputes.Load(); n != 1 {
		t.Errorf("%d solo-rate computations for one benchmark, want 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if rates[g] != rates[0] {
			t.Fatalf("goroutine %d got rate %g, first got %g", g, rates[g], rates[0])
		}
	}
}

// TestWithModelSharesSoloCache is the ablation-cache regression test: a
// model-derived Study must reuse the parent's model-independent solo rates
// instead of recomputing them.
func TestWithModelSharesSoloCache(t *testing.T) {
	s := newEngineStudy(0)
	parent, err := s.SoloRate("tonto")
	if err != nil {
		t.Fatal(err)
	}
	alt := s.withModel(contention.Model{EqualLLCShares: true})
	derived, err := alt.SoloRate("tonto")
	if err != nil {
		t.Fatal(err)
	}
	if derived != parent {
		t.Fatalf("derived study solo rate %g != parent %g", derived, parent)
	}
	if n := alt.soloComputes.Load(); n != 0 {
		t.Errorf("derived study recomputed %d solo rates despite warm shared cache", n)
	}
	if alt.Parallelism != s.Parallelism {
		t.Error("derived study dropped the parallelism setting")
	}
}

// TestWithModelCountsEvaluations: a model-derived Study's cells count in the
// base study's Evaluations, the observable behind the daemon's engine
// evaluation metric and the campaign ledger's cell count.
func TestWithModelCountsEvaluations(t *testing.T) {
	s := newEngineStudy(0)
	alt := s.withModel(contention.Model{EqualLLCShares: true})
	d, err := config.DesignByName("4B", true)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Evaluations()
	if _, err := alt.SweepDesign(context.Background(), d, Heterogeneous); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Evaluations()-before, int64(MaxThreads*s.MixesPerCount); got != want {
		t.Errorf("derived-model sweep raised the base study's evaluations by %d, want %d", got, want)
	}
}

func TestSoloRateUnknownBenchmark(t *testing.T) {
	s := newEngineStudy(0)
	if _, err := s.SoloRate("no-such-benchmark"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// The failure is not cached: the entry must not block later misses.
	if _, err := s.SoloRate("no-such-benchmark"); err == nil {
		t.Fatal("unknown benchmark accepted on retry")
	}
}

// --- runIndexed unit tests ---

func TestRunIndexedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		seen := make([]int32, n)
		err := runIndexed(context.Background(), workers, n, nil, func(_ context.Context, i int) error {
			seen[i]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunIndexedZeroTasks(t *testing.T) {
	if err := runIndexed(context.Background(), 4, 0, nil, func(_ context.Context, _ int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestRunIndexedPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := runIndexed(context.Background(), workers, 50, nil, func(_ context.Context, i int) error {
			if i == 17 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want boom", workers, err)
		}
	}
}

func TestRunIndexedStopsAfterError(t *testing.T) {
	// After a failure the pool must stop handing out new indices; with the
	// serial fallback nothing past the failing index runs at all.
	ran := 0
	err := runIndexed(context.Background(), 1, 100, nil, func(_ context.Context, i int) error {
		ran++
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || ran != 4 {
		t.Fatalf("serial: ran %d tasks (want 4), err %v", ran, err)
	}
}

func TestWorkersDefault(t *testing.T) {
	s := New(profiler.NewSource(20_000))
	if s.workers() < 1 {
		t.Fatalf("default workers = %d", s.workers())
	}
	s.Parallelism = 3
	if s.workers() != 3 {
		t.Fatalf("explicit workers = %d, want 3", s.workers())
	}
}

// --- context cancellation tests ---

func TestRunIndexedHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := 0
		err := runIndexed(ctx, workers, 50, nil, func(_ context.Context, i int) error { ran++; return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if ran != 0 {
			t.Fatalf("workers=%d: %d tasks ran under a cancelled context", workers, ran)
		}
	}
}

func TestRunIndexedStopsMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := runIndexed(ctx, 2, 1000, nil, func(_ context.Context, i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("all %d tasks ran despite mid-run cancellation", n)
	}
}

// TestSweepDesignCancellation: a cancelled sweep stops the engine, returns
// the context error, and leaves the cache unpoisoned so a retry recomputes.
func TestSweepDesignCancellation(t *testing.T) {
	s := newEngineStudy(2)
	d, err := config.DesignByName("20s", true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SweepDesign(ctx, d, Heterogeneous); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	// A live context recomputes from scratch — the aborted run is not cached.
	sw, err := s.SweepDesign(context.Background(), d, Heterogeneous)
	if err != nil {
		t.Fatal(err)
	}
	if sw.STP[0] <= 0 {
		t.Fatal("retried sweep has empty results")
	}
}
