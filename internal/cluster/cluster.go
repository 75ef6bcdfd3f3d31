// Package cluster is the distributed sweep fabric: a coordinator/worker
// subsystem that shards sweep work units — (design × mix × thread count)
// cells — across a fleet of smtflexd processes and reassembles tables
// bit-identical to the single-process engine.
//
// The design in one paragraph: a sweep decomposes into independently
// evaluable cells (study.SweepMixes), each with a canonical content address
// (memo.KeyHash of study.CellKey). The coordinator serves what its
// fleet-level content-addressed store already holds (identical sub-sweeps
// are computed once fleet-wide) and puts the rest in one list. Every worker
// has four dispatch slots; each slot claims the list's next undispatched
// cell through an atomic index and dispatches it over HTTP/JSON to its own
// worker, so fast workers take more cells and a slow or dead worker's share
// drains through the rest of the fleet. A cell's result is fixed by its
// address, so no cell needs a particular worker. An attempt that exceeds a
// latency threshold is hedged with a second dispatch to a different worker,
// a lost worker's cell is retried elsewhere, and when every worker is gone
// the coordinator computes the remaining cells locally, so a sweep always
// converges. The per-cell results feed study.AssembleSweep, the same
// reassembly the local pool uses, which is why distributed tables are
// bit-for-bit identical by construction — and why the assembled sweeps can
// live in the coordinator's study's sweep cache (study.SweepDesignWith),
// beside any the study computed itself.
//
// Failure semantics: a transport error or timeout counts against the
// worker's circuit breaker and the cell is retried on another live worker;
// while the breaker is open the worker's slots dispatch to the least-loaded
// live worker instead. HTTP 503 from a worker's admission valve is a shed,
// not a death — the coordinator honors the jittered Retry-After and retries
// the same worker a bounded number of times. 4xx/409 responses are
// terminal: the request itself is wrong (bad design, a key that does not
// address its cell, fleet fingerprint mismatch) and no amount of retrying
// fixes it.
//
// Observability: dispatch, hedge and retry are obs spans under the
// coordinator's "cluster.sweep" span, so time stacks attribute fleet
// overhead; counters back the daemon's /metrics and /debug/cluster surfaces.
package cluster

import "errors"

// CellPath is the worker-side HTTP route that evaluates one sweep cell. The
// server mounts it only in worker role; the coordinator's client dispatches
// to workerURL+CellPath.
const CellPath = "/cluster/v1/cell"

// ErrFingerprintMismatch is returned by a worker handed a cell from a fleet
// whose engine configuration (profiling length, mix parameters, model
// options) differs from its own. It is terminal: results from mismatched
// engines must never be mixed into one table.
var ErrFingerprintMismatch = errors.New("cluster: fleet fingerprint mismatch")

// ErrKeyMismatch is returned by a worker handed a cell whose key is not the
// content address of the cell it describes. It is terminal: caching the
// result under the supplied key would serve it for a different cell.
var ErrKeyMismatch = errors.New("cluster: cell key does not address the request")

// ErrBadCell is returned by a worker handed a cell request that names no
// design or lists no programs. It is terminal: the request cannot describe
// a cell however often it is retried.
var ErrBadCell = errors.New("cluster: malformed cell request")

// ErrNoWorkers is returned when a coordinator is constructed without any
// worker URLs.
var ErrNoWorkers = errors.New("cluster: coordinator needs at least one worker URL")

// ErrAuditDivergence is returned when audit mode (Options.AuditFraction)
// double-dispatches a cell to two independent workers and their result
// digests disagree. It is terminal: divergence means at least one worker is
// producing wrong results, and a table assembled from either cannot be
// trusted.
var ErrAuditDivergence = errors.New("cluster: audit divergence — independent workers disagree on a cell")

// DrainingHeader is set (value "1") on a worker's 503 responses while it is
// draining for shutdown. The coordinator reroutes such cells to another
// worker immediately — no shed budget consumed, no breaker penalty — because
// a draining worker is healthy, just leaving.
const DrainingHeader = "X-Smtflexd-Draining"

// TraceparentHeader carries the coordinator's trace context on a dispatch:
// "<trace-id>;<parent-span-id>" (obs.FormatTraceparent). A worker adopts it
// via obs.StartRemoteTrace so its spans join the coordinator's trace, and
// returns its completed subtree in the CellResponse for stitching. Dispatches
// also carry the standard X-Request-ID, which workers reuse in their request
// logs instead of minting a fresh one.
const TraceparentHeader = "Smtflexd-Traceparent"
