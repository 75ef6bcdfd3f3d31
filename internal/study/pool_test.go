package study

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smtflex/internal/faults"
)

// Tests for panic containment at the worker-pool boundary: a panicking
// evaluation must fail the run with ErrWorkerPanic with one worker and with
// several, without unwinding the caller.

func TestRunIndexedContainsPanicSerial(t *testing.T) {
	err := runIndexed(context.Background(), 1, 4, nil, func(_ context.Context, i int) error {
		if i == 2 {
			panic("task exploded")
		}
		return nil
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("got %v, want ErrWorkerPanic", err)
	}
	if !strings.Contains(err.Error(), "task 2") || !strings.Contains(err.Error(), "task exploded") {
		t.Fatalf("panic context lost: %v", err)
	}
}

// formatted is a panic value that closes itself when the pool formats it
// into the task's error, which the pool does after building the stack trace.
type formatted chan struct{}

func (c formatted) String() string {
	select {
	case <-c:
	default:
		close(c)
	}
	return "task exploded"
}

func TestRunIndexedContainsPanicParallel(t *testing.T) {
	var ran atomic.Int64
	gate := make(formatted)
	err := runIndexed(context.Background(), 4, 32, nil, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 5 {
			panic(gate)
		}
		// Tasks 6-8, one per other worker, hold their workers until the
		// panic is being turned into an error; otherwise those workers can
		// finish every trivial task while the stack trace is built, and
		// the pool's stop is never seen. A worker that still outruns the
		// panicking one's last steps to the stop flag and starts a later
		// task waits there, long enough for the flag to be set.
		if i > 5 {
			<-gate
		}
		if i > 8 {
			time.Sleep(250 * time.Millisecond)
		}
		return nil
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("got %v, want ErrWorkerPanic", err)
	}
	// The pool must have stopped early rather than draining all 32 tasks.
	if n := ran.Load(); n == 32 {
		t.Fatal("pool did not stop after a panicked task")
	}
}

func TestRunIndexedPanicReportsLowestIndex(t *testing.T) {
	// When several tasks panic, the reported index is the lowest one —
	// matching the serial engine's first failure. A worker that claimed an
	// index just as another task failed once skipped it, about one run in
	// 3,000, so the run repeats.
	for run := 0; run < 20_000; run++ {
		err := runIndexed(context.Background(), 8, 8, nil, func(_ context.Context, i int) error {
			panic(i)
		})
		if !errors.Is(err, ErrWorkerPanic) {
			t.Fatalf("run %d: got %v", run, err)
		}
		if !strings.Contains(err.Error(), "task 0:") {
			t.Fatalf("run %d: expected lowest task index in %v", run, err)
		}
	}
}

func TestWorkerErrorInjection(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	faults.Enable(faults.SiteWorker, faults.Injection{Mode: faults.ModeError, Count: 1})
	err := runIndexed(context.Background(), 1, 3, nil, func(_ context.Context, i int) error { return nil })
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("got %v, want injected error", err)
	}
	// Disarmed: the next run completes.
	if err := runIndexed(context.Background(), 1, 3, nil, func(_ context.Context, i int) error { return nil }); err != nil {
		t.Fatalf("run after disarm: %v", err)
	}
}

func TestWorkerPanicInjectionParallel(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	faults.Enable(faults.SiteWorker, faults.Injection{Mode: faults.ModePanic, Count: 1})
	err := runIndexed(context.Background(), 4, 16, nil, func(_ context.Context, i int) error { return nil })
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("got %v, want ErrWorkerPanic", err)
	}
	if err := runIndexed(context.Background(), 4, 16, nil, func(_ context.Context, i int) error { return nil }); err != nil {
		t.Fatalf("run after disarm: %v", err)
	}
}
