package memo

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"smtflex/internal/faults"
)

// Tests for panic containment and fault injection at the cache boundary: a
// compute that panics or fails must never poison the cache, never deadlock
// waiters, and must be retried by the next caller.

func TestGetContainsPanic(t *testing.T) {
	var c Cache[string, int]
	_, err := c.GetCtx(context.Background(), "k", func(context.Context) (int, error) { panic("boom") })
	if !errors.Is(err, ErrComputePanic) {
		t.Fatalf("got %v, want ErrComputePanic", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic value lost: %v", err)
	}
	if !strings.Contains(err.Error(), "panic_test.go") {
		t.Fatalf("stack trace missing from %q", err)
	}
	// The failure is not cached: the next lookup retries and succeeds.
	v, err := c.GetCtx(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after panic: v=%d err=%v", v, err)
	}
	if _, ok := c.Cached("k"); !ok {
		t.Fatal("successful retry not cached")
	}
}

func TestGetCtxContainsPanic(t *testing.T) {
	var c Cache[string, int]
	_, err := c.GetCtx(context.Background(), "k", func(context.Context) (int, error) { panic(42) })
	if !errors.Is(err, ErrComputePanic) {
		t.Fatalf("got %v, want ErrComputePanic", err)
	}
	v, err := c.GetCtx(context.Background(), "k", func(context.Context) (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("retry after panic: v=%d err=%v", v, err)
	}
}

func TestConcurrentWaitersAllSeePanic(t *testing.T) {
	// Every goroutine coalesced onto a panicking compute must receive the
	// error; none may hang on a done channel that never closes.
	var c Cache[string, int]
	release := make(chan struct{})
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = c.GetCtx(context.Background(), "k", func(context.Context) (int, error) {
				<-release
				panic("shared boom")
			})
		}(g)
	}
	close(release)
	wg.Wait()
	for g, err := range errs {
		if !errors.Is(err, ErrComputePanic) {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("panicked entry left in cache (len %d)", c.Len())
	}
}

func TestInjectedErrorRetried(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	faults.Enable(faults.SiteMemo, faults.Injection{Mode: faults.ModeError, Count: 1})

	var c Cache[string, int]
	calls := 0
	compute := func(context.Context) (int, error) { calls++; return 5, nil }

	if _, err := c.GetCtx(context.Background(), "k", compute); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("got %v, want injected error", err)
	}
	if calls != 0 {
		t.Fatal("injection fired after the compute ran")
	}
	v, err := c.GetCtx(context.Background(), "k", compute)
	if err != nil || v != 5 || calls != 1 {
		t.Fatalf("retry: v=%d err=%v calls=%d", v, err, calls)
	}
	// Now cached: no further computes.
	if _, err := c.GetCtx(context.Background(), "k", compute); err != nil || calls != 1 {
		t.Fatalf("cached read recomputed (calls=%d, err=%v)", calls, err)
	}
}

func TestInjectedPanicContained(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	faults.Enable(faults.SiteMemo, faults.Injection{Mode: faults.ModePanic, Count: 1})

	var c Cache[string, int]
	if _, err := c.GetCtx(context.Background(), "k", func(context.Context) (int, error) { return 1, nil }); !errors.Is(err, ErrComputePanic) {
		t.Fatalf("injected panic not contained: %v", err)
	}
	v, err := c.GetCtx(context.Background(), "k", func(context.Context) (int, error) { return 1, nil })
	if err != nil || v != 1 {
		t.Fatalf("retry after injected panic: v=%d err=%v", v, err)
	}
}
