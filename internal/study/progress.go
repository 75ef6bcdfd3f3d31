package study

import "context"

// ProgressFunc receives live engine progress: done of total pool tasks have
// finished. The pool invokes it from worker goroutines, so implementations
// must be safe for concurrent use; they must also be fast — the hook runs on
// the evaluation path and a slow hook stalls the pool. The hook observes
// progress only; it cannot influence results.
type ProgressFunc func(done, total int)

// progressKeyType keys the progress hook in a context.
type progressKeyType struct{}

// WithProgress returns a context carrying fn as the engine progress hook.
// SweepDesign forwards the hook of the caller that leads a (possibly
// coalesced) sweep computation into the pool, which calls it after every
// completed (thread count, mix) evaluation. A nil fn returns ctx unchanged.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKeyType{}, fn)
}

// progressFrom extracts the progress hook from ctx, or nil.
func progressFrom(ctx context.Context) ProgressFunc {
	if ctx == nil {
		return nil
	}
	fn, _ := ctx.Value(progressKeyType{}).(ProgressFunc)
	return fn
}

// ProgressFrom exposes the context-carried progress hook to a compute that
// SweepDesignWith runs outside this package's pool (the cluster
// coordinator's), so a distributed sweep feeds the same live-progress
// surfaces as a local one.
func ProgressFrom(ctx context.Context) ProgressFunc { return progressFrom(ctx) }
