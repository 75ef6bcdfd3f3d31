// Command perfdiff attributes the performance difference between two perf
// snapshots — the differential half of the performance-observability layer.
//
//	perfdiff baseline.json current.json
//
// Each input is a perf snapshot, captured via /debug/perfsnap or a CLI's
// -perfsnap flag. A benchjson report is refused: `benchjson -compare` is
// the one comparison of bench reports. The output is a ranked report:
// per-phase self-time deltas, per-component CPI deltas per engine and
// histogram quantile shifts (p50/p95/p99) — worst first, regressions over
// threshold flagged OVER.
//
// Flags tune the noise floors: -phase-pct/-phase-min-ns (engine-phase mean
// self time per trace), -cpi-pct/-cpi-min (CPI-stack components) and
// -quantile-pct/-quantile-min (histogram quantiles). -format json emits the
// report document instead of text; -report FILE also writes the text report
// for CI artifacts.
//
// Exit codes mirror benchjson: 0 no deltas over threshold; 1 unreadable or
// schema-mismatched input; 2 at least one delta over threshold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"smtflex/internal/perfdiff"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: perfdiff [flags] baseline.json current.json\n")
		fs.PrintDefaults()
	}
	def := perfdiff.DefaultThresholds()
	var (
		format     = fs.String("format", "text", "output format: text or json")
		reportPath = fs.String("report", "", "also write the text report to this file")
		phasePct   = fs.Float64("phase-pct", def.PhasePct, "allowed %% increase in a phase's mean self time per trace")
		phaseMinNs = fs.Float64("phase-min-ns", def.PhaseMinNs, "phase mean self-time floor in ns; quieter phases are not gated")
		cpiPct     = fs.Float64("cpi-pct", def.CPIPct, "allowed %% increase in a CPI-stack component")
		cpiMin     = fs.Float64("cpi-min", def.CPIMin, "absolute CPI-delta floor")
		quantPct   = fs.Float64("quantile-pct", def.QuantilePct, "allowed %% increase in a histogram quantile")
		quantMin   = fs.Float64("quantile-min", def.QuantileMin, "absolute quantile-delta floor")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 1
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "perfdiff: unknown -format %q (want text or json)\n", *format)
		return 1
	}

	base, err := perfdiff.ReadAuto(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "perfdiff: baseline: %v\n", err)
		return 1
	}
	cur, err := perfdiff.ReadAuto(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "perfdiff: current: %v\n", err)
		return 1
	}

	th := perfdiff.Thresholds{
		PhasePct: *phasePct, PhaseMinNs: *phaseMinNs,
		CPIPct: *cpiPct, CPIMin: *cpiMin,
		QuantilePct: *quantPct, QuantileMin: *quantMin,
	}
	rep, err := perfdiff.Diff(base, cur, th)
	if err != nil {
		fmt.Fprintf(stderr, "perfdiff: %v\n", err)
		return 1
	}

	text := rep.RenderText()
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, []byte(text), 0o644); err != nil {
			fmt.Fprintf(stderr, "perfdiff: %v\n", err)
			return 1
		}
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "perfdiff: %v\n", err)
			return 1
		}
	default:
		io.WriteString(stdout, text)
	}
	if rep.Exceeded > 0 {
		return 2
	}
	return 0
}
