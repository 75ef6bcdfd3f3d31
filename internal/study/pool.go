package study

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"smtflex/internal/faults"
	"smtflex/internal/obs"
)

// ErrWorkerPanic is the sentinel wrapped by errors produced when an
// evaluation handed to the worker pool panics. The panic is contained at the
// pool boundary: the sweep fails with this error instead of unwinding the
// whole process, so one bad evaluation cannot take down a daemon serving
// other requests.
var ErrWorkerPanic = errors.New("study: evaluation panicked")

// The parallel experiment engine: every sweep and figure driver fans its
// independent evaluations over a bounded worker pool and writes results into
// index-addressed slots, so the assembled tables are bit-for-bit identical
// to the serial engine's regardless of completion order. The caches the
// workers stress (profiles, solo rates, sweeps) use memo.Cache, whose
// singleflight semantics make concurrent misses compute once.
//
// The pool is also the engine's cancellation point: runIndexed checks the
// context before handing each index to a worker, so when a server request is
// abandoned mid-sweep the remaining grid is dropped instead of burning
// workers for a result nobody will read. In-progress evaluations finish
// (they are short); no new ones start.
//
// Observability: each task runs under a "pool.task" span carrying its index
// and its queue wait — the time between the batch entering the pool and the
// task starting, the engine's analog of dispatch stalls. The wait also feeds
// the optional queue histogram (the daemon's smtflexd_pool_queue_seconds).

// workers resolves the pool size: Parallelism if positive, else GOMAXPROCS.
func (s *Study) workers() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runIndexed runs fn(ctx, i) for every i in [0, n) on up to workers
// goroutines, stopping early if ctx is cancelled. On a task error the pool
// stops handing out new indices and returns the error with the lowest
// failing index, the error a serial loop would return. On cancellation it
// returns ctx.Err(), unless every index was already handed out and
// completed — then the work is done and the cancellation is irrelevant. With
// one worker the indices run in order. queue, when non-nil,
// receives each task's queue wait in seconds. A progress hook carried by ctx
// (see WithProgress) is called after every completed task with the number of
// tasks finished so far; completion order is nondeterministic under
// parallelism, but the final call is always (n, n) on a successful run.
func runIndexed(ctx context.Context, workers, n int, queue *obs.Histogram, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers > n {
		workers = n
	}
	prog := progressFrom(ctx)
	enqueued := time.Now()
	var (
		next     atomic.Int64
		done     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check for a failure before claiming, so that every
				// claimed index runs: all indices below the lowest failing
				// one are claimed before it, and it is claimed before any
				// failure is recorded.
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					// Only a cancellation that actually skips an index is an
					// error; i was due to run and will not.
					record(i, err)
					return
				}
				if err := safeCall(ctx, enqueued, queue, i, fn); err != nil {
					record(i, err)
					return
				}
				if prog != nil {
					prog(int(done.Add(1)), n)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// safeCall runs fn(ctx, i) under a "pool.task" span, with the worker
// fault-injection site applied and any panic converted into an error
// wrapping ErrWorkerPanic.
func safeCall(ctx context.Context, enqueued time.Time, queue *obs.Histogram, i int, fn func(ctx context.Context, i int) error) (err error) {
	wait := time.Since(enqueued)
	queue.Observe(wait.Seconds())
	ctx, sp := obs.StartSpan(ctx, "pool.task")
	sp.SetAttr("index", i)
	sp.SetAttr("queue_ns", wait.Nanoseconds())
	defer sp.End()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: task %d: %v\n%s", ErrWorkerPanic, i, r, debug.Stack())
		}
	}()
	if err := faults.Check(faults.SiteWorker); err != nil {
		return fmt.Errorf("task %d: %w", i, err)
	}
	return fn(ctx, i)
}
