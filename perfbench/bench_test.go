package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestWorkloadDigests runs every workload briefly at a small fidelity: two
// untraced passes on one seed must fold their outputs into the same digest,
// a traced pass must match them, and no operation may fail.
func TestWorkloadDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	set, err := loadSettings()
	if err != nil {
		t.Fatal(err)
	}
	set.Fidelity.Uops, set.Fidelity.Mixes = 5000, 1
	set.Campaign.SetupRepeats, set.Place.SetupRepeats, set.Fleet.SetupRepeats = 1, 1, 1
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rc := runConfig{set: set, seed: 3, seconds: 1, workDir: t.TempDir()}
			pass := func(rc runConfig) string {
				o, err := workloads[name](context.Background(), rc)
				if err != nil {
					t.Fatal(err)
				}
				o.close()
				if o.failed != 0 || o.attempted == 0 {
					t.Fatalf("%d of %d operations failed", o.failed, o.attempted)
				}
				return o.digest
			}
			first, second := pass(rc), pass(rc)
			if first != second {
				t.Errorf("digests differ between identical runs: %s vs %s", first, second)
			}
			rc.tr = newTracer()
			if traced := pass(rc); traced != first {
				t.Errorf("traced digest %s differs from untraced %s", traced, first)
			}
		})
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestShares checks the ledger's interval arithmetic on a hand-built trace:
// a 100 ns phase with a 60 ns layer span whose child covers 20 ns of it.
func TestShares(t *testing.T) {
	tr := newTracer()
	tr.spans = []spanRec{
		{ID: 1, Layer: rootLayer, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Layer: "server", StartNs: 10, EndNs: 70},
		{ID: 3, Parent: 2, Layer: "cluster", StartNs: 30, EndNs: 50},
		{ID: 4, Parent: 1, Layer: "server", StartNs: 60, EndNs: 80},
		{ID: 5, Layer: probeLayer, StartNs: 100, EndNs: 200},
		{ID: 6, Parent: 5, Layer: "trace", StartNs: 100, EndNs: 200},
	}
	got := tr.shares()
	want := map[string]float64{
		"server.share": 0.7, "server.self_share": 0.5,
		"cluster.share": 0.2, "cluster.self_share": 0.2,
		"ledger.coverage": 0.7,
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("%s = %g, want %g", k, got[k], w)
		}
	}
}

// TestWindowQuantile checks that a burst confined to one window moves that
// window's percentile and not the median over windows.
func TestWindowQuantile(t *testing.T) {
	xs := []float64{1, 1, 1, 1, 2, 2, 2, 2, 9, 9, 9, 9}
	if got := windowQuantile(xs, 3, 0.5); got != 2 {
		t.Errorf("median of window medians = %g, want 2", got)
	}
	if got := windowQuantile(xs, 1, 0.5); got != 2 {
		t.Errorf("one window = %g, want the pooled median 2", got)
	}
	if got := windowQuantile(nil, 8, 0.5); got != 0 {
		t.Errorf("empty sample = %g, want 0", got)
	}
}
