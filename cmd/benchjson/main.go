// Command benchjson converts `go test -bench` text output into the stable
// JSON perf-trajectory document, and gates one run against another.
//
// Convert (default): read bench text on stdin, write JSON on stdout — the
// format the CI bench job archives as BENCH_<date>.json. A run that parses to
// zero benchmark results is an error, not an empty document: that is what a
// panicking benchmark binary leaves behind, and the pipeline must notice.
//
//	go test -bench . -benchmem -benchtime=1x | benchjson > BENCH_$(date +%F).json
//
// Compare: gate a current run against a committed baseline and exit non-zero
// on any regression. The current run is a JSON document (-current file, or
// raw bench text on stdin which is converted first).
//
//	benchjson -compare BENCH_baseline.json -current BENCH_2026-08-08.json
//	go test -bench . -benchmem | benchjson -compare BENCH_baseline.json
//
// Flags tune the gate: -ns-pct / -allocs-pct (allowed % increase),
// -allocs-slack (absolute allocs/op allowance on top of the percentage),
// -min-ns (ns/op noise floor below which wall time is not gated), and
// -report (also write the human-readable comparison to a file for CI
// artifacts).
//
// To refresh the committed baseline after an intentional perf change:
//
//	go test -bench . -benchmem -benchtime=1x -run '^$' -timeout 3000s . | benchjson > BENCH_baseline.json
//
// Exit codes: 0 success / no regressions; 1 malformed or empty input;
// 2 regressions detected.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"smtflex/internal/benchjson"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := benchjson.DefaultThresholds()
	var (
		compare     = fs.String("compare", "", "baseline JSON file to gate against; exits 2 on regression")
		current     = fs.String("current", "", "current-run JSON file (with -compare); default reads bench text from stdin")
		reportPath  = fs.String("report", "", "also write the comparison report to this file")
		nsPct       = fs.Float64("ns-pct", def.Default.NsPerOpPct, "allowed ns/op increase in percent")
		allocsPct   = fs.Float64("allocs-pct", def.Default.AllocsPerOpPct, "allowed allocs/op increase in percent")
		allocsSlack = fs.Float64("allocs-slack", def.Default.AllocsPerOpSlack, "absolute allocs/op allowance on top of -allocs-pct")
		minNs       = fs.Float64("min-ns", def.MinNsPerOp, "baseline ns/op below this floor is not wall-time gated")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *compare == "" {
		return convert(stdin, stdout, stderr)
	}

	baseline, err := decodeFile(*compare)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: baseline: %v\n", err)
		return 1
	}
	cur, err := loadCurrent(*current, stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: current: %v\n", err)
		return 1
	}
	th := benchjson.Thresholds{
		Default: benchjson.Limit{
			NsPerOpPct:       *nsPct,
			AllocsPerOpPct:   *allocsPct,
			AllocsPerOpSlack: *allocsSlack,
		},
		MinNsPerOp: *minNs,
	}
	regs, err := benchjson.Compare(baseline, cur, th)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}

	out := stdout
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}
	if len(regs) == 0 {
		fmt.Fprintf(out, "benchjson: %d benchmark(s) vs %s: no regressions\n\n%s",
			len(baseline.Results), *compare, benchjson.FormatComparison(baseline, cur, regs))
		return 0
	}
	fmt.Fprintf(out, "benchjson: %d regression(s) vs %s:\n", len(regs), *compare)
	for _, r := range regs {
		fmt.Fprintf(out, "  %s\n", r)
	}
	fmt.Fprintf(out, "\n%s", benchjson.FormatComparison(baseline, cur, regs))
	return 2
}

// convert is the default mode: bench text in, JSON document out.
func convert(stdin io.Reader, stdout, stderr io.Writer) int {
	rep, err := benchjson.Parse(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if len(rep.Results) == 0 {
		fmt.Fprintf(stderr, "benchjson: %v (did the bench run crash before producing output?)\n",
			benchjson.ErrNoResults)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "benchjson: %d benchmark result(s)\n", len(rep.Results))
	return 0
}

func decodeFile(path string) (*benchjson.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return benchjson.DecodeJSON(f)
}

// loadCurrent resolves the current-run report: a JSON file when -current is
// given, otherwise bench text from stdin (so the gate can sit directly after
// a `go test -bench | benchjson -compare ...` pipe).
func loadCurrent(path string, stdin io.Reader) (*benchjson.Report, error) {
	if path != "" {
		return decodeFile(path)
	}
	rep, err := benchjson.Parse(stdin)
	if err != nil {
		return nil, err
	}
	if len(rep.Results) == 0 {
		return nil, benchjson.ErrNoResults
	}
	return rep, nil
}
