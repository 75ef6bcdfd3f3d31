// Command perfbench is smtflex's end-to-end benchmark. It runs one workload
// through the program's real code paths — a cold figure campaign, open-loop
// placement queries against a solo daemon, or sweeps through a two-worker
// fleet — checks every output, and prints its metrics as one JSON
// object on the last line of standard output.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload campaign-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// every tracing facility off. With --trace 1 the workload runs twice on the
// same seed, first untraced and then with the benchmark's own spans armed,
// followed by the unit-cost probes; the result then carries the per-layer
// ledger and the span file is written under .bench_build/.
//
// The program's own request tracing, obs spans and machine counters stay off
// in every run: the only difference between the two passes of a traced run
// is the benchmark's spans around its calls into each layer.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"smtflex/internal/core"
)

//go:embed settings.json
var settingsJSON []byte

//go:embed reference.json
var referenceJSON []byte

// settings mirrors the parts of settings.json the program reads; the rest of
// that file documents the workloads and the ledger for readers.
type settings struct {
	Fidelity struct {
		Uops  uint64 `json:"uops"`
		Mixes int    `json:"mixes"`
	} `json:"fidelity"`
	DefaultSeed int64 `json:"default_seed"`
	HeldoutSeed int64 `json:"heldout_seed"`
	Campaign    struct {
		SetupRepeats int `json:"setup_repeats"`
	} `json:"campaign_cold"`
	Place placeSettings `json:"serve_place"`
	Fleet fleetSettings `json:"fleet_sweep"`
}

func loadSettings() (settings, error) {
	var s settings
	if err := json.Unmarshal(settingsJSON, &s); err != nil {
		return s, fmt.Errorf("settings.json: %w", err)
	}
	return s, nil
}

// runConfig is what one pass of a workload is given.
type runConfig struct {
	set     settings
	seed    int64
	seconds float64
	// tr records the benchmark's spans; nil in untraced passes.
	tr *tracer
	// workDir is scratch space inside the checkout (the journal probe's
	// records).
	workDir string
}

// newSim builds a simulator at the benchmark's fidelity. Only campaign-cold
// passes its seed to the engine (it drives the heterogeneous mixes); the
// serve workloads hand the engine generated requests instead.
func (rc runConfig) newSim(opts ...core.Option) *core.Simulator {
	return core.NewSimulator(append([]core.Option{
		core.WithUopCount(rc.set.Fidelity.Uops),
		core.WithMixesPerCount(rc.set.Fidelity.Mixes),
	}, opts...)...)
}

// named is one metric under its workload-specific name, printed as a text
// line.
type named struct {
	name  string
	value float64
	unit  string
}

// outcome is what one pass of a workload reports.
type outcome struct {
	attempted, failed int
	// digest folds every output of the pass, in a fixed order.
	digest string
	// cost is the workload's CPU time per operation (cpu_ms_per_op); the
	// traced pass's change in it is the tracing overhead.
	cost float64
	// e2e holds every end-to-end metric by name.
	e2e map[string]float64
	// named restates the workload's metrics under their workload-specific names.
	named []named
	// notes are extra lines for the reader, such as each rung's outcome.
	notes []string
	// layers holds the per-layer counters read from outside after the pass.
	layers map[string]float64
	// probe is what the unit-cost probes replay.
	probe probeInput
	// close releases listeners, goroutines and scratch files.
	close func()
}

type workloadFunc func(ctx context.Context, rc runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"campaign-cold": runCampaign,
	"serve-place":   runPlace,
	"fleet-sweep":   runFleet,
}

// discardLogger silences the daemon's request logs; records are still built,
// as they are in production.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	set, err := loadSettings()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign-cold, serve-place or fleet-sweep")
	seed := fs.Int64("seed", set.DefaultSeed, "workload seed")
	secs := fs.Float64("seconds", 15, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass and per-layer ledger")
	outDir := fs.String("out", ".bench_build", "directory for the span file and scratch data")
	updateRef := fs.String("update-reference", "", "write this run's digest into the given reference file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*name]
	if !ok || *secs <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	workDir, err := filepath.Abs(filepath.Join(*outDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	rc := runConfig{set: set, seed: *seed, seconds: *secs, workDir: workDir}
	ctx := context.Background()
	res, err := measure(ctx, *name, wf, rc, *traceFlag == 1, *outDir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *updateRef != "" {
		if err := writeReference(*updateRef, *name, *seed, *secs, res.digest); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type measured struct {
	result result
	digest string
}

// measure runs the workload once untraced and, when traced, once more with
// spans armed plus the probes, and assembles the result line.
func measure(ctx context.Context, name string, wf workloadFunc, rc runConfig, traced bool, outDir string, stdout io.Writer) (measured, error) {
	plain, err := wf(ctx, rc)
	if err != nil {
		return measured{}, fmt.Errorf("%s: %w", name, err)
	}
	plain.close()
	attempted, failed := plain.attempted, plain.failed
	ref, hasRef, err := referenceDigest(name, rc.seed, rc.seconds)
	if err != nil {
		return measured{}, err
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g fidelity %d uops/%d mixes\n",
		name, rc.seed, rc.seconds, rc.set.Fidelity.Uops, rc.set.Fidelity.Mixes)
	fmt.Fprintf(stdout, "digest %s\n", plain.digest)
	if hasRef {
		if plain.digest != ref {
			fmt.Fprintf(stdout, "digest MISMATCH: reference %s; every operation counts as failed\n", ref)
			failed = attempted
		} else {
			fmt.Fprintln(stdout, "digest matches reference")
		}
	} else {
		fmt.Fprintln(stdout, "digest: no reference for this seed and length")
	}

	for _, n := range plain.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, m := range plain.named {
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", m.name, m.value, m.unit)
	}
	metrics := map[string]metricValue{}
	if !traced {
		for _, d := range endToEnd {
			v, ok := plain.e2e[d.name]
			if !ok {
				return measured{}, fmt.Errorf("%s: metric %s not measured", name, d.name)
			}
			metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	} else {
		rc.tr = newTracer()
		tracedOut, err := wf(ctx, rc)
		if err != nil {
			return measured{}, fmt.Errorf("%s (traced): %w", name, err)
		}
		attempted += tracedOut.attempted
		failed += tracedOut.failed
		if tracedOut.digest != plain.digest {
			fmt.Fprintf(stdout, "traced digest %s differs from untraced; the traced pass counts as failed\n", tracedOut.digest)
			failed += tracedOut.attempted - tracedOut.failed
		}
		layers, err := runProbes(ctx, rc, tracedOut)
		tracedOut.close()
		if err != nil {
			return measured{}, fmt.Errorf("%s probes: %w", name, err)
		}
		for k, v := range rc.tr.shares() {
			layers[k] = v
		}
		layers["tracing_overhead_frac"] = (tracedOut.cost - plain.cost) / plain.cost
		spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, rc.seed))
		if err := rc.tr.writeFile(spanFile); err != nil {
			return measured{}, err
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", rc.tr.count(), spanFile)
		for _, d := range perLayer {
			v, ok := layers[d.name]
			if !ok {
				return measured{}, fmt.Errorf("%s: ledger metric %s not measured", name, d.name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			fmt.Fprintf(stdout, "layer %s %.6g %s\n", d.name, v, d.unit)
			metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	fmt.Fprintf(stdout, "metric error_rate %.6g fraction\n", float64(failed)/float64(max(attempted, 1)))
	return measured{
		result: result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics},
		digest: plain.digest,
	}, nil
}

// reference is the committed digest file: one entry per workload, seed and
// run length. Only serve-place's outputs depend on the run length (it sizes
// the query sequence); the other workloads' entries use length 0.
type reference struct {
	Entries []referenceEntry `json:"entries"`
}

type referenceEntry struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Digest   string  `json:"digest"`
}

func refSeconds(name string, seconds float64) float64 {
	if name == "serve-place" {
		return seconds
	}
	return 0
}

func referenceDigest(name string, seed int64, seconds float64) (string, bool, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return "", false, fmt.Errorf("reference.json: %w", err)
	}
	for _, e := range ref.Entries {
		if e.Workload == name && e.Seed == seed && e.Seconds == refSeconds(name, seconds) {
			return e.Digest, true, nil
		}
	}
	return "", false, nil
}

// writeReference records digest for (name, seed, seconds) in the file at
// path, replacing any earlier entry for the same key.
func writeReference(path, name string, seed int64, seconds float64, digest string) error {
	var ref reference
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err == nil {
		if err := json.Unmarshal(b, &ref); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	e := referenceEntry{Workload: name, Seed: seed, Seconds: refSeconds(name, seconds), Digest: digest}
	kept := ref.Entries[:0]
	for _, old := range ref.Entries {
		if old.Workload != e.Workload || old.Seed != e.Seed || old.Seconds != e.Seconds {
			kept = append(kept, old)
		}
	}
	ref.Entries = append(kept, e)
	sort.Slice(ref.Entries, func(i, j int) bool {
		a, b := ref.Entries[i], ref.Entries[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Seconds < b.Seconds
	})
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
