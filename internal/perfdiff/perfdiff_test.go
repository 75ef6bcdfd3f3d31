package perfdiff_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"smtflex/internal/config"
	"smtflex/internal/contention"
	"smtflex/internal/faults"
	"smtflex/internal/machstats"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
	"smtflex/internal/profiler"
	"smtflex/internal/workload"
)

// shared profiling source: measuring profiles is the expensive part, so the
// engine-backed tests in this package reuse one cache.
var (
	srcOnce sync.Once
	src     *profiler.Source
)

func source() *profiler.Source {
	srcOnce.Do(func() { src = profiler.NewSource(60_000) })
	return src
}

// place builds a placement of the given benchmarks round-robin over the
// design's cores.
func place(t *testing.T, designName string, benches ...string) contention.Placement {
	t.Helper()
	d, err := config.DesignByName(designName, true)
	if err != nil {
		t.Fatal(err)
	}
	p := contention.Placement{Design: d}
	for i, b := range benches {
		c := i % d.NumCores()
		spec, err := workload.ByName(b)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := source().Profile(spec, d.Cores[c].Type)
		if err != nil {
			t.Fatal(err)
		}
		p.CoreOf = append(p.CoreOf, c)
		p.Profiles = append(p.Profiles, prof)
	}
	return p
}

// solveSnapshots captures sides perf snapshots of pl's solves: the same
// pipeline a live daemon's /debug/perfsnap walks, minus HTTP. Each side
// records rounds traces of solves solves each, and the sides take turns
// trace by trace (A, B, A, B, ...), so that a load burst on the host lands
// on every side alike and many traces average out the preemptions.
func solveSnapshots(t *testing.T, pl contention.Placement, solves, rounds, sides int) []*perfdiff.Snapshot {
	t.Helper()
	type side struct {
		col    *obs.Collector
		iters  *obs.Histogram
		solver *contention.Solver
		stacks []machstats.StackRecord
	}
	ss := make([]side, sides)
	for i := range ss {
		ss[i] = side{
			col:    obs.NewCollector(rounds),
			iters:  obs.NewHistogram(perfdiff.SolverIterBuckets),
			solver: contention.NewSolver(),
		}
	}
	for r := 0; r < rounds; r++ {
		for i := range ss {
			machstats.Reset()
			ctx, root := obs.StartTrace(context.Background(), ss[i].col, "bench.solve")
			for n := 0; n < solves; n++ {
				res, err := ss[i].solver.SolveModelCtx(ctx, pl, contention.Model{})
				if err != nil {
					t.Fatal(err)
				}
				ss[i].iters.Observe(float64(res.Diag.Iterations))
			}
			root.End()
			ss[i].stacks = append(ss[i].stacks, machstats.Default().Snapshot().Stacks...)
		}
	}
	machstats.Reset()
	snaps := make([]*perfdiff.Snapshot, sides)
	for i, sd := range ss {
		snaps[i] = perfdiff.Capture(perfdiff.CaptureOpts{
			Role:   "test",
			Traces: sd.col.Snapshots(),
			Mach:   &machstats.Snapshot{Stacks: sd.stacks},
			Histograms: []perfdiff.HistogramState{
				perfdiff.HistState(perfdiff.HistSolverIterations, sd.iters.Snapshot()),
			},
		})
	}
	return snaps
}

// TestDiffSelfClean is the self-cleanliness acceptance criterion: two
// snapshots of the same build doing the same work must report no deltas over
// the default noise floor — the analog of TestCommittedBaselineIsSelfClean
// for the bench gate.
func TestDiffSelfClean(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	machstats.Enable()
	defer machstats.Disable()
	pl := place(t, "4B", "tonto", "gcc", "mcf", "hmmer", "soplex", "bzip2")

	// 16 alternating rounds of 100 solves: each trace's solve phase stays
	// several times the diff's 1 ms floor, and each side holds enough solve
	// time for a host's preemptions to average out.
	snaps := solveSnapshots(t, pl, 100, 16, 2)
	base, cur := snaps[0], snaps[1]

	rep, err := perfdiff.Diff(base, cur, perfdiff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exceeded != 0 {
		t.Fatalf("same-build diff not self-clean: %d exceeded\n%s", rep.Exceeded, rep.RenderText())
	}
	if len(rep.Deltas) == 0 {
		t.Fatal("diff of two captured snapshots reported no deltas at all (capture broken?)")
	}
	// The identical solver work must make identical histograms, bit for bit.
	for _, d := range rep.Deltas {
		if d.Kind == "quantile" && d.Baseline != d.Current {
			t.Errorf("quantile %s/%s differs on identical work: %g vs %g", d.Group, d.Metric, d.Baseline, d.Current)
		}
	}
}

// TestDiffRanksInjectedSolveRegression is the attribution acceptance
// criterion: slow the solver synthetically (faults latency at every solver
// iteration) and the diff must rank contention.solve as the top regression.
func TestDiffRanksInjectedSolveRegression(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	pl := place(t, "4B", "tonto", "gcc", "mcf", "hmmer")

	base := solveSnapshots(t, pl, 10, 1, 1)[0]

	faults.Enable(faults.SiteSolver, faults.Injection{Mode: faults.ModeLatency, Latency: 50 * time.Microsecond})
	defer faults.Reset()
	cur := solveSnapshots(t, pl, 10, 1, 1)[0]
	faults.Reset()

	rep, err := perfdiff.Diff(base, cur, perfdiff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exceeded == 0 {
		t.Fatalf("injected solver latency not detected\n%s", rep.RenderText())
	}
	top := rep.Deltas[0]
	if top.Kind != "phase" || top.Metric != obs.CatSolve || !top.Exceeds {
		t.Fatalf("top delta is %s/%s/%s (exceeds=%v), want phase/%s regression\n%s",
			top.Kind, top.Group, top.Metric, top.Exceeds, obs.CatSolve, rep.RenderText())
	}
	// The injection slows wall time but must not change solver arithmetic:
	// iteration-count quantiles stay bit-identical, proving the report
	// attributes the slowdown to time, not to behavior.
	for _, d := range rep.Deltas {
		if d.Kind == "quantile" && d.Exceeds {
			t.Errorf("iteration quantile flagged under pure latency injection: %+v", d)
		}
	}
}

// The package's test documents, shared with FuzzReadAuto's seed corpus.
const (
	benchDoc       = `{"results":[{"name":"BenchmarkX","procs":1,"iterations":10,"ns_per_op":100,"metrics":{"allocs/op":5}}]}`
	wrongSchemaDoc = `{"schema_version": 99}`
	garbageDoc     = `{"hello": 1}`
	// shortCumulativeDoc has one cumulative count for three bounds.
	shortCumulativeDoc = `{"schema_version":1,"histograms":[{"name":"solver_iterations","bounds":[1,2,4],"cumulative":[1],"count":3,"sum":5}]}`
)

// writeDoc writes data to a fresh file and returns its path.
func writeDoc(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// lockedSnapshot fills every section of the snapshot schema.
func lockedSnapshot() *perfdiff.Snapshot {
	return &perfdiff.Snapshot{
		SchemaVersion: perfdiff.SchemaVersion,
		CapturedAt:    time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Build:         perfdiff.Build{GoVersion: "go", Revision: "r", Module: "m", Version: "v"},
		Role:          "test",
		TimeStacks: []obs.TimeStack{{
			Name: "g", Traces: 1, WallNs: 10,
			ByNs: map[string]int64{"solve": 10}, Percent: map[string]float64{"solve": 100},
		}},
		MachStats: &machstats.Snapshot{
			Counters: []machstats.CounterSample{{Name: "c", Value: 1}},
			Cycles:   []machstats.CycleSample{{Name: "y", Cycles: 2}},
			Stacks: []machstats.StackRecord{{
				Engine: "interval", Design: "4B", Benchmark: "gcc",
				Components: []machstats.Component{{Name: "base", CPI: 1}},
			}},
		},
		Histograms: []perfdiff.HistogramState{{Name: "h", Bounds: []float64{1}, Cumulative: []int64{1}, Count: 1, Sum: 1}},
		Caches:     []perfdiff.CacheCounter{{Name: "p", Hits: 1, Misses: 2, Coalesced: 3, Entries: 4}},
		Profiles:   []perfdiff.Profile{{Kind: "cpu", CapturedAt: time.Date(2026, 1, 2, 3, 4, 6, 0, time.UTC), DurMs: 100, Data: []byte{1}}},
	}
}

// TestSnapshotSchemaLocked locks the JSON field names of every snapshot
// section: renaming a field breaks every archived baseline, so it must break
// this test first.
func TestSnapshotSchemaLocked(t *testing.T) {
	snap := lockedSnapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{
		"schema_version", "captured_at", "build", "role", "time_stacks",
		"machstats", "histograms", "caches", "profiles",
	}
	for _, k := range wantKeys {
		if _, ok := doc[k]; !ok {
			t.Errorf("snapshot JSON missing locked key %q", k)
		}
	}
	if len(doc) != len(wantKeys) {
		t.Errorf("snapshot JSON has %d top-level keys, schema locks %d: %s", len(doc), len(wantKeys), data)
	}
	for section, keys := range map[string][]string{
		"build":      {"go_version", "revision", "module", "version"},
		"histograms": {"name", "bounds", "cumulative", "count", "sum"},
		"caches":     {"name", "hits", "misses", "coalesced", "entries"},
		"profiles":   {"kind", "captured_at", "dur_ms", "data"},
	} {
		var raw any
		if err := json.Unmarshal(doc[section], &raw); err != nil {
			t.Fatalf("%s: %v", section, err)
		}
		obj, ok := raw.(map[string]any)
		if !ok {
			obj = raw.([]any)[0].(map[string]any)
		}
		for _, k := range keys {
			if _, present := obj[k]; !present {
				t.Errorf("%s JSON missing locked key %q", section, k)
			}
		}
		if len(obj) != len(keys) {
			t.Errorf("%s JSON has %d keys, schema locks %d", section, len(obj), len(keys))
		}
	}

	// And the document round-trips losslessly.
	back := &perfdiff.Snapshot{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("snapshot does not round-trip:\n%+v\nvs\n%+v", snap, back)
	}
}

func TestSnapshotWriteReadAtomic(t *testing.T) {
	dir := t.TempDir()
	snap := perfdiff.Capture(perfdiff.CaptureOpts{Role: "test"})
	path := filepath.Join(dir, "snap.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := perfdiff.ReadAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Role != "test" || back.SchemaVersion != perfdiff.SchemaVersion {
		t.Errorf("round trip lost fields: %+v", back)
	}
	// Atomic write leaves no temp droppings.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
	// WriteDir stamps the filename.
	p2, err := snap.WriteDir(dir, "perfsnap")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(p2), "perfsnap-") || !strings.HasSuffix(p2, ".json") {
		t.Errorf("WriteDir name %q", p2)
	}
}

func TestValidateRejectsWrongSchema(t *testing.T) {
	if _, err := perfdiff.ReadAuto(writeDoc(t, []byte(wrongSchemaDoc))); err == nil {
		t.Fatal("schema version 99 accepted")
	}
	wrong := &perfdiff.Snapshot{SchemaVersion: 2}
	if _, err := perfdiff.Diff(wrong, wrong, perfdiff.DefaultThresholds()); err == nil {
		t.Fatal("Diff accepted mismatched schema version")
	}
}

// TestValidateRejectsMalformedHistogram: a histogram whose cumulative counts
// do not match its bounds one for one passed Validate and then panicked in
// the quantile math of Diff.
func TestValidateRejectsMalformedHistogram(t *testing.T) {
	if _, err := perfdiff.ReadAuto(writeDoc(t, []byte(shortCumulativeDoc))); err == nil {
		t.Fatal("histogram with 1 cumulative count for 3 bounds accepted")
	}
	for _, cum := range [][]int64{{1}, {1, 2, 3, 3}} {
		s := &perfdiff.Snapshot{SchemaVersion: perfdiff.SchemaVersion, Histograms: []perfdiff.HistogramState{
			{Name: perfdiff.HistSolverIterations, Bounds: []float64{1, 2, 4}, Cumulative: cum, Count: 3, Sum: 5},
		}}
		if _, err := perfdiff.Diff(s, s, perfdiff.DefaultThresholds()); err == nil {
			t.Errorf("Diff accepted %d cumulative counts for 3 bounds", len(cum))
		}
	}
}

func TestReadAutoWrapsBenchReport(t *testing.T) {
	dir := t.TempDir()
	// A bench report is benchjson -compare's to gate, and the refusal says so.
	if _, err := perfdiff.ReadAuto(writeDoc(t, []byte(benchDoc))); err == nil || !strings.Contains(err.Error(), "benchjson -compare") {
		t.Fatalf("bench report: err %v, want a refusal naming benchjson -compare", err)
	}
	// A real snapshot reads through the same entry point.
	snapPath := filepath.Join(dir, "snap.json")
	if err := perfdiff.Capture(perfdiff.CaptureOpts{Role: "x"}).WriteFile(snapPath); err != nil {
		t.Fatal(err)
	}
	s, err := perfdiff.ReadAuto(snapPath)
	if err != nil || s.Role != "x" {
		t.Fatalf("snapshot through ReadAuto: %v %+v", err, s)
	}
	// A snapshot written while schema 1 still embedded bench reports reads
	// with that key ignored.
	if _, err := perfdiff.ReadAuto(writeDoc(t, []byte(`{"schema_version":1,"bench":{"results":[]}}`))); err != nil {
		t.Fatalf("snapshot with a bench key: %v", err)
	}
	// Garbage is neither.
	if _, err := perfdiff.ReadAuto(writeDoc(t, []byte(garbageDoc))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDiffQuantileShift(t *testing.T) {
	mk := func(vals ...float64) perfdiff.HistogramState {
		h := obs.NewHistogram(perfdiff.SolverIterBuckets)
		for _, v := range vals {
			h.Observe(v)
		}
		return perfdiff.HistState(perfdiff.HistSolverIterations, h.Snapshot())
	}
	base := perfdiff.Capture(perfdiff.CaptureOpts{Histograms: []perfdiff.HistogramState{mk(3, 3, 3, 3)}})
	cur := perfdiff.Capture(perfdiff.CaptureOpts{Histograms: []perfdiff.HistogramState{mk(120, 120, 120, 120)}})
	rep, err := perfdiff.Diff(base, cur, perfdiff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exceeded == 0 {
		t.Fatalf("40x iteration shift not flagged\n%s", rep.RenderText())
	}
	if top := rep.Deltas[0]; top.Kind != "quantile" || top.Group != perfdiff.HistSolverIterations {
		t.Errorf("top delta %+v, want quantile shift", top)
	}
	// Identical histograms stay clean.
	rep, err = perfdiff.Diff(base, base, perfdiff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exceeded != 0 {
		t.Errorf("identical histograms flagged\n%s", rep.RenderText())
	}
}

func TestDiffCPIShift(t *testing.T) {
	mk := func(memCPI float64) *perfdiff.Snapshot {
		return perfdiff.Capture(perfdiff.CaptureOpts{Mach: &machstats.Snapshot{Stacks: []machstats.StackRecord{{
			Engine: "interval", Design: "4B", Benchmark: "gcc",
			Components: []machstats.Component{{Name: "base", CPI: 0.5}, {Name: "mem", CPI: memCPI}},
		}}}})
	}
	rep, err := perfdiff.Diff(mk(0.2), mk(0.9), perfdiff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	var flagged *perfdiff.Delta
	for i := range rep.Deltas {
		if rep.Deltas[i].Exceeds {
			flagged = &rep.Deltas[i]
		}
	}
	if flagged == nil || flagged.Kind != "cpi" || flagged.Metric != "mem" || flagged.Group != "interval" {
		t.Fatalf("mem CPI 0.2->0.9 not attributed: %+v\n%s", flagged, rep.RenderText())
	}
	// base stayed put and must not be flagged.
	for _, d := range rep.Deltas {
		if d.Metric == "base" && d.Exceeds {
			t.Errorf("unchanged base component flagged: %+v", d)
		}
	}
}

// TestCaptureHeapProfile sanity-checks the heap capture used by ?pprof=1.
func TestCaptureHeapProfile(t *testing.T) {
	p, err := perfdiff.CaptureHeapProfile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != "heap" || len(p.Data) == 0 {
		t.Errorf("heap profile %q with %d bytes", p.Kind, len(p.Data))
	}
}
