package perfdiff_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smtflex/internal/machstats"
	"smtflex/internal/memo"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
)

// fakeEngine records the histograms the CLI arms and reports one cache.
type fakeEngine struct{ iters, queue *obs.Histogram }

func (e *fakeEngine) SetEngineHistograms(iters, queue *obs.Histogram) {
	e.iters, e.queue = iters, queue
}

func (e *fakeEngine) CacheCounters() []memo.Counters {
	return []memo.Counters{{Name: "profiles", Hits: 2, Misses: 1}}
}

// cliOutputs registers the output flags on a fresh flag set and parses args.
func cliOutputs(t *testing.T, args ...string) *perfdiff.CLI {
	t.Helper()
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	outs := perfdiff.RegisterCLI(fs, "cmd", "run")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return outs
}

// TestCLIOutputs: the batch CLIs' one output path arms nothing unless asked,
// and with all three outputs set writes every one of them.
func TestCLIOutputs(t *testing.T) {
	obs.Disable()
	machstats.Disable()
	t.Cleanup(obs.Disable)
	t.Cleanup(machstats.Disable)

	outs := cliOutputs(t)
	if col := outs.Arm(&fakeEngine{}, 1); col != nil || obs.Enabled() || machstats.Enabled() {
		t.Fatalf("no output set, yet collector %v, obs enabled %v, machstats enabled %v", col, obs.Enabled(), machstats.Enabled())
	}
	var stderr bytes.Buffer
	if err := outs.Write(&stderr); err != nil || stderr.Len() != 0 {
		t.Fatalf("no output set, yet Write: %v, %q", err, stderr.String())
	}

	dir := t.TempDir()
	tracePath, machPrefix, snapDir := filepath.Join(dir, "trace.json"), filepath.Join(dir, "ms"), filepath.Join(dir, "snap")
	outs = cliOutputs(t, "-trace", tracePath, "-machstats", machPrefix, "-perfsnap", snapDir)
	eng := &fakeEngine{}
	col := outs.Arm(eng, 1)
	if col == nil || !obs.Enabled() || !machstats.Enabled() || eng.iters == nil || eng.queue == nil {
		t.Fatalf("all outputs set, yet collector %v, obs enabled %v, machstats enabled %v, histograms %v %v",
			col, obs.Enabled(), machstats.Enabled(), eng.iters, eng.queue)
	}
	_, root := obs.StartTrace(context.Background(), col, "cmd")
	eng.iters.Observe(3)
	root.End()
	if err := outs.Write(&stderr); err != nil {
		t.Fatalf("Write: %v\n%s", err, stderr.String())
	}

	chrome, err := os.ReadFile(tracePath)
	if err != nil || !bytes.Contains(chrome, []byte(`"traceEvents"`)) {
		t.Fatalf("trace file: %v, %.80q", err, chrome)
	}
	for _, suffix := range []string{".json", ".stacks.csv", ".counters.csv"} {
		if _, err := os.Stat(machPrefix + suffix); err != nil {
			t.Errorf("machstats file: %v", err)
		}
	}
	snaps, err := filepath.Glob(filepath.Join(snapDir, "cmd-*.json"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("perf snapshots %v (%v), want one", snaps, err)
	}
	snap, err := perfdiff.ReadAuto(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if snap.Role != "cmd" || len(snap.TimeStacks) != 1 || len(snap.Caches) != 1 || snap.MachStats == nil {
		t.Errorf("snapshot role %q, %d time stack(s), %d cache(s), machstats %v", snap.Role, len(snap.TimeStacks), len(snap.Caches), snap.MachStats)
	}
	if h, ok := snap.Histogram(perfdiff.HistSolverIterations); !ok || h.Count != 1 {
		t.Errorf("solver-iterations histogram %+v (captured %v), want one observation", h, ok)
	}
	for _, want := range []string{"cmd: wrote 1 trace(s) to " + tracePath, "cmd: wrote " + machPrefix + ".json", "cmd: wrote perf snapshot " + snaps[0]} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}
