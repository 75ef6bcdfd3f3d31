// Package perfdiff is the performance-observability layer: versioned perf
// snapshots bundling the engine's runtime self-measurements (obs time stacks,
// machstats counters and CPI stacks, solver/queue histograms, memo cache
// counters, bench results, pprof profiles), and differential attribution
// between two snapshots — the instrument that turns "we regressed" into
// "contention.solve regressed".
//
// The design applies the paper's own methodology to the simulator itself:
// Eyerman-style CPI stacks decompose cycles into named components so a change
// is attributable; perfdiff decomposes a build's runtime into named phases so
// a regression is attributable. A snapshot is cheap to capture (it only reads
// already-collected state), schema-locked (SchemaVersion gates every read),
// and diffable offline with cmd/perfdiff.
package perfdiff

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"smtflex/internal/journal"

	"smtflex/internal/benchjson"
	"smtflex/internal/buildinfo"
	"smtflex/internal/machstats"
	"smtflex/internal/memo"
	"smtflex/internal/obs"
)

// SchemaVersion is the snapshot document version. Readers reject documents
// from a different version instead of silently mis-attributing: a perf diff
// across schema generations is noise presented as signal.
const SchemaVersion = 1

// Canonical engine histogram buckets, shared between the daemon's /metrics
// export and snapshot capture so a baseline captured anywhere diffs cleanly
// against a snapshot captured anywhere else.
var (
	// SolverIterBuckets covers contention-solver iteration counts.
	SolverIterBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	// QueueSecondsBuckets covers pool queue waits in seconds.
	QueueSecondsBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}
)

// Canonical histogram names used by the daemon and the CLIs.
const (
	HistSolverIterations = "solver_iterations"
	HistPoolQueueSeconds = "pool_queue_seconds"
)

// Build is buildinfo.Info with locked JSON field names, so the snapshot
// schema does not depend on another package's field spelling.
type Build struct {
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision"`
	Module    string `json:"module"`
	Version   string `json:"version"`
}

// BuildFromInfo converts the binary's build metadata to the snapshot form.
func BuildFromInfo(i buildinfo.Info) Build {
	return Build{GoVersion: i.GoVersion, Revision: i.Revision, Module: i.Module, Version: i.Version}
}

// HistogramState is one named histogram's full bucket state — enough to
// recompute quantiles offline via obs.HistogramSnapshot.Quantile.
type HistogramState struct {
	Name       string    `json:"name"`
	Bounds     []float64 `json:"bounds,omitempty"`
	Cumulative []int64   `json:"cumulative,omitempty"`
	Count      int64     `json:"count"`
	Sum        float64   `json:"sum"`
}

// HistState captures one histogram snapshot under a name.
func HistState(name string, s obs.HistogramSnapshot) HistogramState {
	return HistogramState{Name: name, Bounds: s.Bounds, Cumulative: s.Cumulative, Count: s.Count, Sum: s.Sum}
}

// Snapshot converts back to the obs form (for Quantile).
func (h HistogramState) Snapshot() obs.HistogramSnapshot {
	return obs.HistogramSnapshot{Bounds: h.Bounds, Cumulative: h.Cumulative, Count: h.Count, Sum: h.Sum}
}

// CacheCounter is one memo cache's hit/miss state with locked JSON names.
type CacheCounter struct {
	Name      string `json:"name"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Coalesced int64  `json:"coalesced"`
	Entries   int    `json:"entries"`
}

// CacheCounters converts memo counter snapshots to the snapshot form.
func CacheCounters(cs []memo.Counters) []CacheCounter {
	if len(cs) == 0 {
		return nil
	}
	out := make([]CacheCounter, len(cs))
	for i, c := range cs {
		out[i] = CacheCounter{Name: c.Name, Hits: c.Hits, Misses: c.Misses, Coalesced: c.Coalesced, Entries: c.Entries}
	}
	return out
}

// Profile is one captured pprof profile. Data is the raw gzipped protobuf;
// encoding/json transports it as base64.
type Profile struct {
	// Kind is "cpu" or "heap".
	Kind string `json:"kind"`
	// CapturedAt is when the capture finished.
	CapturedAt time.Time `json:"captured_at"`
	// DurMs is the CPU profiling window (zero for heap).
	DurMs int64 `json:"dur_ms,omitempty"`
	// Data is the profile bytes.
	Data []byte `json:"data"`
}

// Snapshot is the versioned perf bundle. Every field only *reads* engine
// state: capturing a snapshot never perturbs results (the bit-identity suite
// asserts this on the nine-design sweep).
type Snapshot struct {
	SchemaVersion int       `json:"schema_version"`
	CapturedAt    time.Time `json:"captured_at"`
	Build         Build     `json:"build"`
	// Role labels the capturing process: "daemon", "coordinator", "worker",
	// or a CLI name.
	Role string `json:"role,omitempty"`
	// TimeStacks is the engine-phase self-time decomposition per trace group.
	TimeStacks []obs.TimeStack `json:"time_stacks,omitempty"`
	// FleetStacks is a coordinator's scrape of its workers' time stacks,
	// merged per route (empty for single-process captures).
	FleetStacks []obs.TimeStack `json:"fleet_stacks,omitempty"`
	// MachStats carries the simulated-hardware counters and CPI stacks.
	MachStats *machstats.Snapshot `json:"machstats,omitempty"`
	// Histograms is the engine histogram state (solver iterations, queue).
	Histograms []HistogramState `json:"histograms,omitempty"`
	// Caches is the memo cache counter state.
	Caches []CacheCounter `json:"caches,omitempty"`
	// Bench embeds a benchjson report when the capture had one (CI attaches
	// the current run so perfdiff can attribute a bench regression).
	Bench *benchjson.Report `json:"bench,omitempty"`
	// Profiles carries optional pprof captures (?pprof=1).
	Profiles []Profile `json:"profiles,omitempty"`
}

// CaptureOpts collects the engine state a Snapshot is built from. Every
// field is optional; Capture only packages what it is given.
type CaptureOpts struct {
	Role        string
	Traces      []obs.TraceJSON
	FleetStacks []obs.TimeStack
	Mach        *machstats.Snapshot
	Histograms  []HistogramState
	Caches      []memo.Counters
	Bench       *benchjson.Report
	Profiles    []Profile
}

// Capture builds a schema-stamped snapshot from already-collected state. It
// aggregates traces into time stacks but performs no collection of its own.
func Capture(o CaptureOpts) *Snapshot {
	s := &Snapshot{
		SchemaVersion: SchemaVersion,
		CapturedAt:    time.Now().UTC(),
		Build:         BuildFromInfo(buildinfo.Get()),
		Role:          o.Role,
		FleetStacks:   o.FleetStacks,
		MachStats:     o.Mach,
		Histograms:    o.Histograms,
		Caches:        CacheCounters(o.Caches),
		Bench:         o.Bench,
		Profiles:      o.Profiles,
	}
	if len(o.Traces) > 0 {
		s.TimeStacks = obs.TimeStacks(o.Traces)
	}
	return s
}

// Validate checks the schema stamp, the histograms' shape and that an
// embedded bench report has results (as benchjson's own reader demands).
// Diff and ReadAuto call it so a hand-edited or cross-generation document
// fails loudly instead of crashing the quantile math.
func (s *Snapshot) Validate() error {
	if s == nil {
		return errors.New("perfdiff: nil snapshot")
	}
	if s.SchemaVersion != SchemaVersion {
		return fmt.Errorf("perfdiff: snapshot schema version %d, this build reads %d",
			s.SchemaVersion, SchemaVersion)
	}
	for _, h := range s.Histograms {
		if len(h.Cumulative) != len(h.Bounds) {
			return fmt.Errorf("perfdiff: histogram %q has %d cumulative counts for %d bounds",
				h.Name, len(h.Cumulative), len(h.Bounds))
		}
	}
	if s.Bench != nil && len(s.Bench.Results) == 0 {
		return fmt.Errorf("perfdiff: embedded bench report: %w", benchjson.ErrNoResults)
	}
	return nil
}

// Histogram returns the named histogram state and whether it was captured.
func (s *Snapshot) Histogram(name string) (HistogramState, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramState{}, false
}

// MarshalIndent renders the snapshot as the canonical indented JSON document.
func (s *Snapshot) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// WriteFile writes the snapshot crash-safely through the journal's
// temp-file, fsync and rename writer, like the journal's records and the
// coordinator's flight-record dumps, so a crash mid-write never leaves a
// torn document for a later diff to choke on.
func (s *Snapshot) WriteFile(path string) error {
	data, err := s.MarshalIndent()
	if err != nil {
		return fmt.Errorf("perfdiff: marshal snapshot: %w", err)
	}
	if err := journal.WriteAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("perfdiff: write snapshot: %w", err)
	}
	return nil
}

// WriteDir writes the snapshot into dir under a timestamped name
// (<prefix>-<UTC stamp>.json), creating dir if needed, and returns the path.
func (s *Snapshot) WriteDir(dir, prefix string) (string, error) {
	if prefix == "" {
		prefix = "perfsnap"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("perfdiff: %w", err)
	}
	stamp := s.CapturedAt
	if stamp.IsZero() {
		stamp = time.Now().UTC()
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.json", prefix, stamp.UTC().Format("20060102T150405.000000000")))
	if err := s.WriteFile(path); err != nil {
		return "", err
	}
	return path, nil
}

// ReadAuto reads a perf snapshot, falling back to a raw benchjson report
// wrapped as a bench-only snapshot — so CI can hand perfdiff the same
// documents the bench job already produces without a conversion step.
func ReadAuto(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perfdiff: read snapshot: %w", err)
	}
	return decodeAuto(data, path)
}

// decodeAuto is ReadAuto after the read; path only labels errors.
func decodeAuto(data []byte, path string) (*Snapshot, error) {
	probe := struct {
		SchemaVersion *int `json:"schema_version"`
	}{}
	if err := json.Unmarshal(data, &probe); err == nil && probe.SchemaVersion != nil {
		s := &Snapshot{}
		if err := json.Unmarshal(data, s); err != nil {
			return nil, fmt.Errorf("perfdiff: parse snapshot %s: %w", path, err)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	rep, err := benchjson.DecodeJSON(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("perfdiff: %s is neither a perf snapshot nor a benchjson report: %w", path, err)
	}
	s := Capture(CaptureOpts{Role: "benchjson", Bench: rep})
	return s, nil
}

// CaptureCPUProfile profiles the process for dur and returns the profile.
// It fails (without blocking) when another CPU profile is already running —
// pprof allows one at a time process-wide.
func CaptureCPUProfile(dur time.Duration) (Profile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return Profile{}, fmt.Errorf("perfdiff: cpu profile: %w", err)
	}
	time.Sleep(dur)
	pprof.StopCPUProfile()
	return Profile{
		Kind:       "cpu",
		CapturedAt: time.Now().UTC(),
		DurMs:      dur.Milliseconds(),
		Data:       buf.Bytes(),
	}, nil
}

// CaptureHeapProfile snapshots the heap profile (after a GC, so the numbers
// reflect live objects rather than garbage awaiting collection).
func CaptureHeapProfile() (Profile, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		return Profile{}, fmt.Errorf("perfdiff: heap profile: %w", err)
	}
	return Profile{Kind: "heap", CapturedAt: time.Now().UTC(), Data: buf.Bytes()}, nil
}
