package cluster

import (
	"context"
	"fmt"

	"smtflex/internal/config"
	"smtflex/internal/memo"
	"smtflex/internal/study"
	"smtflex/internal/workload"
)

// Worker is the worker-side half of the fabric: it evaluates cells through
// the local engine, caching results by content address so a re-dispatched or
// hedged duplicate — or the same cell in a later sweep — is served without
// recomputation. The address is recomputed from the request, never taken on
// trust, so a wrong key cannot file one cell's result under another's. The
// HTTP plumbing (admission, tracing, metrics) lives in internal/server, which
// mounts Evaluate under CellPath in worker role; this type is transport-free
// so tests can drive it directly.
type Worker struct {
	st *study.Study
	// cells is the worker-local content-addressed result store. Its hit/miss
	// counters surface on the worker's /metrics as cache="cells".
	cells memo.Cache[string, CellResponse]
}

// NewWorker wraps a study engine as a fabric worker. maxCells bounds the
// content store with LRU eviction (0 = unbounded).
func NewWorker(st *study.Study, maxCells int) *Worker {
	w := &Worker{st: st}
	w.cells.Name = "cells"
	if maxCells > 0 {
		w.cells.Bound(maxCells)
	}
	return w
}

// Evaluate computes one cell, serving repeats from the content store.
// Identical concurrent requests (a coordinator hedge racing a retry)
// coalesce onto one computation via the store's singleflight semantics. A
// request whose Key is not the cell's content address is refused with
// ErrKeyMismatch.
func (w *Worker) Evaluate(ctx context.Context, req CellRequest) (CellResponse, error) {
	if req.Fingerprint != "" && req.Fingerprint != w.st.Fingerprint() {
		return CellResponse{}, fmt.Errorf("%w: coordinator %q vs worker %q",
			ErrFingerprintMismatch, req.Fingerprint, w.st.Fingerprint())
	}
	if req.Design == "" {
		return CellResponse{}, fmt.Errorf("%w: missing design", ErrBadCell)
	}
	if len(req.Programs) == 0 {
		return CellResponse{}, fmt.Errorf("%w: no programs", ErrBadCell)
	}
	d, err := config.DesignByName(req.Design, req.SMT)
	if err != nil {
		return CellResponse{}, err
	}
	if req.BandwidthGBps > 0 {
		d = d.WithBandwidth(req.BandwidthGBps)
	}
	kind, err := study.ParseKind(req.Kind)
	if err != nil {
		return CellResponse{}, err
	}
	mix := workload.Mix{ID: req.MixID, Programs: req.Programs}
	if key := memo.KeyHash(w.st.CellKey(d, kind, req.N, mix)); req.Key != key {
		return CellResponse{}, fmt.Errorf("%w: key %q, cell %q", ErrKeyMismatch, req.Key, key)
	}
	return w.cells.GetCtx(ctx, req.Key, func(ctx context.Context) (CellResponse, error) {
		r, err := w.st.EvaluateMixCtx(ctx, d, mix)
		if err != nil {
			return CellResponse{}, err
		}
		return toWire(req.Key, r), nil
	})
}

// CacheCounters exposes the content store's counters for /metrics.
func (w *Worker) CacheCounters() []memo.Counters {
	return []memo.Counters{w.cells.Counters()}
}
