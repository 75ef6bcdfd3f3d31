package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
)

// writeSnap writes a snapshot with one time-stack group whose solve phase
// has the given mean self time per trace.
func writeSnap(t *testing.T, dir, name string, solveNs int64) string {
	t.Helper()
	s := perfdiff.Capture(perfdiff.CaptureOpts{Role: "test"})
	s.TimeStacks = []obs.TimeStack{{
		Name: "sweep", Traces: 1, WallNs: solveNs,
		ByNs:    map[string]int64{obs.CatSolve: solveNs},
		Percent: map[string]float64{obs.CatSolve: 100},
	}}
	path := filepath.Join(dir, name)
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSelfCleanExitZero(t *testing.T) {
	dir := t.TempDir()
	base := writeSnap(t, dir, "base.json", 10_000_000)
	cur := writeSnap(t, dir, "cur.json", 10_500_000) // +5%: under floor
	var out, errb bytes.Buffer
	if code := run([]string{base, cur}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s stdout %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Errorf("output missing clean verdict: %s", out.String())
	}
}

func TestRunRegressionExitTwoAndReport(t *testing.T) {
	dir := t.TempDir()
	base := writeSnap(t, dir, "base.json", 10_000_000)
	cur := writeSnap(t, dir, "cur.json", 100_000_000) // 10x
	report := filepath.Join(dir, "report.txt")
	var out, errb bytes.Buffer
	if code := run([]string{"-report", report, base, cur}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2; stderr %s", code, errb.String())
	}
	for _, want := range []string{"REGRESSED", obs.CatSolve, "OVER", "+900.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != out.String() {
		t.Errorf("-report file differs from stdout")
	}
}

func TestRunJSONFormat(t *testing.T) {
	dir := t.TempDir()
	base := writeSnap(t, dir, "base.json", 10_000_000)
	cur := writeSnap(t, dir, "cur.json", 100_000_000)
	var out, errb bytes.Buffer
	if code := run([]string{"-format", "json", base, cur}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	rep := &perfdiff.Report{}
	if err := json.Unmarshal(out.Bytes(), rep); err != nil {
		t.Fatalf("json output: %v\n%s", err, out.String())
	}
	if rep.Exceeded == 0 || len(rep.Deltas) == 0 {
		t.Errorf("report %+v", rep)
	}
	if rep.Deltas[0].Metric != obs.CatSolve {
		t.Errorf("top delta %+v, want solve", rep.Deltas[0])
	}
}

func TestRunBadInputsExitOne(t *testing.T) {
	dir := t.TempDir()
	good := writeSnap(t, dir, "good.json", 1000)
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	var out, errb bytes.Buffer
	if code := run([]string{bad, good}, &out, &errb); code != 1 {
		t.Errorf("bad baseline exit %d, want 1", code)
	}
	if code := run([]string{good}, &out, &errb); code != 1 {
		t.Errorf("one arg exit %d, want 1", code)
	}
	if code := run([]string{"-format", "yaml", good, good}, &out, &errb); code != 1 {
		t.Errorf("bad format exit %d, want 1", code)
	}
	// Schema-mismatched snapshot.
	old := filepath.Join(dir, "old.json")
	os.WriteFile(old, []byte(`{"schema_version": 99}`), 0o644)
	if code := run([]string{old, good}, &out, &errb); code != 1 {
		t.Errorf("schema mismatch exit %d, want 1", code)
	}
	// A histogram with one cumulative count for three bounds (this once
	// panicked in the quantile math).
	short := filepath.Join(dir, "short.json")
	os.WriteFile(short, []byte(`{"schema_version":1,"histograms":[{"name":"solver_iterations","bounds":[1,2,4],"cumulative":[1],"count":3,"sum":5}]}`), 0o644)
	if code := run([]string{short, short}, &out, &errb); code != 1 {
		t.Errorf("malformed histogram exit %d, want 1", code)
	}
}
