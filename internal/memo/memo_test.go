package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetMemoizes(t *testing.T) {
	var c Cache[string, int]
	calls := 0
	for i := 0; i < 3; i++ {
		v, err := c.Get("k", func() (int, error) { calls++; return 42, nil })
		if err != nil || v != 42 {
			t.Fatalf("got %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestConcurrentMissesComputeOnce(t *testing.T) {
	var c Cache[string, int]
	var calls atomic.Int64
	var release sync.WaitGroup
	release.Add(1)

	const goroutines = 32
	var wg sync.WaitGroup
	results := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := c.Get("k", func() (int, error) {
				calls.Add(1)
				release.Wait() // hold every other goroutine in the miss path
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = v
		}(g)
	}
	release.Done()
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times under concurrent misses, want 1", n)
	}
	for g, v := range results {
		if v != 7 {
			t.Fatalf("goroutine %d got %d", g, v)
		}
	}
}

func TestDistinctKeysIndependent(t *testing.T) {
	var c Cache[int, int]
	var wg sync.WaitGroup
	for k := 0; k < 16; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v, err := c.Get(k, func() (int, error) { return k * k, nil })
			if err != nil || v != k*k {
				t.Errorf("key %d: got %d, %v", k, v, err)
			}
		}(k)
	}
	wg.Wait()
	if c.Len() != 16 {
		t.Fatalf("Len = %d, want 16", c.Len())
	}
}

func TestErrorsNotCached(t *testing.T) {
	var c Cache[string, int]
	boom := errors.New("boom")
	calls := 0
	if _, err := c.Get("k", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	v, err := c.Get("k", func() (int, error) { calls++; return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("retry got %d, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (failure must not be cached)", calls)
	}
}

func TestCached(t *testing.T) {
	var c Cache[string, int]
	if _, ok := c.Cached("k"); ok {
		t.Fatal("empty cache reported a hit")
	}
	if _, err := c.Get("k", func() (int, error) { return 5, nil }); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Cached("k")
	if !ok || v != 5 {
		t.Fatalf("Cached = %d, %t", v, ok)
	}
	// One miss each for the empty lookup and Get's compute, one hit.
	if got := c.Counters(); got.Hits != 1 || got.Misses != 2 {
		t.Fatalf("Counters() = %+v, want 1 hit and 2 misses", got)
	}
}

func TestGetCtxCoalesces(t *testing.T) {
	var c Cache[string, int]
	var calls atomic.Int64
	var release sync.WaitGroup
	release.Add(1)

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.GetCtx(context.Background(), "k", func(context.Context) (int, error) {
				calls.Add(1)
				release.Wait()
				return 11, nil
			})
			if err != nil || v != 11 {
				t.Errorf("got %d, %v", v, err)
			}
		}()
	}
	release.Done()
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if got := c.Counters(); got.Misses != 1 || got.Hits != goroutines-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", got.Hits, got.Misses, goroutines-1)
	}
}

// TestGetCtxCancelsAbandonedCompute is the daemon cancellation contract:
// when every waiter abandons an in-flight key, the compute's context is
// cancelled, the failed entry is not cached, and a later caller recomputes.
func TestGetCtxCancelsAbandonedCompute(t *testing.T) {
	var c Cache[string, int]
	started := make(chan struct{})
	computeCancelled := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.GetCtx(ctx, "k", func(cctx context.Context) (int, error) {
			close(started)
			<-cctx.Done() // the compute observes the abandonment
			close(computeCancelled)
			return 0, cctx.Err()
		})
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter got %v, want context.Canceled", err)
	}
	<-computeCancelled

	// The aborted compute must not be cached: a fresh caller recomputes.
	v, err := c.GetCtx(context.Background(), "k", func(context.Context) (int, error) { return 23, nil })
	if err != nil || v != 23 {
		t.Fatalf("recompute got %d, %v", v, err)
	}
}

// TestGetCtxSurvivingWaiterKeepsCompute: one waiter leaving must not cancel
// a compute another waiter still wants.
func TestGetCtxSurvivingWaiterKeepsCompute(t *testing.T) {
	var c Cache[string, int]
	started := make(chan struct{})
	var release sync.WaitGroup
	release.Add(1)

	survivor := make(chan error, 1)
	go func() {
		v, err := c.GetCtx(context.Background(), "k", func(cctx context.Context) (int, error) {
			close(started)
			release.Wait()
			if cctx.Err() != nil {
				return 0, cctx.Err()
			}
			return 31, nil
		})
		if v != 31 && err == nil {
			err = errors.New("wrong value")
		}
		survivor <- err
	}()
	<-started

	quitCtx, quit := context.WithCancel(context.Background())
	joined := make(chan error, 1)
	go func() {
		_, err := c.GetCtx(quitCtx, "k", func(context.Context) (int, error) {
			return 0, errors.New("must coalesce, not recompute")
		})
		joined <- err
	}()
	// Let the second waiter join, then abandon it.
	for {
		if c.Counters().Hits > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	quit()
	if err := <-joined; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter got %v", err)
	}
	release.Done()
	if err := <-survivor; err != nil {
		t.Fatalf("surviving waiter got %v, want 31", err)
	}
}

func TestBoundEvictsLRU(t *testing.T) {
	var c Cache[int, int]
	c.Bound(3)
	for k := 0; k < 3; k++ {
		if _, err := c.Get(k, func() (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 0 so key 1 is now least recently used.
	if _, err := c.Get(0, func() (int, error) { return -1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(3, func() (int, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if _, ok := c.Cached(1); ok {
		t.Fatal("LRU key 1 still cached after eviction")
	}
	for _, k := range []int{0, 2, 3} {
		if _, ok := c.Cached(k); !ok {
			t.Fatalf("key %d evicted, want it kept", k)
		}
	}
	// An evicted key recomputes on demand.
	recomputed := false
	if _, err := c.Get(1, func() (int, error) { recomputed = true; return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("evicted key served from cache")
	}
}

func TestBoundShrinksExisting(t *testing.T) {
	var c Cache[int, int]
	c.Bound(100)
	for k := 0; k < 10; k++ {
		c.Put(k, k)
	}
	c.Bound(4)
	if c.Len() != 4 {
		t.Fatalf("Len = %d after shrink, want 4", c.Len())
	}
}

func TestPutReplaceKeepsSingleLRUEntry(t *testing.T) {
	var c Cache[string, int]
	c.Bound(2)
	c.Put("a", 1)
	c.Put("a", 2)
	c.Put("b", 3)
	if v, ok := c.Cached("a"); !ok || v != 2 {
		t.Fatalf("a = %d, %t; want 2", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}
