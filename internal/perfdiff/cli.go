package perfdiff

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"smtflex/internal/machstats"
	"smtflex/internal/memo"
	"smtflex/internal/obs"
)

// Engine is the slice of the experiment engine the CLI capture path needs:
// a place to hang the engine histograms and the cache counters to embed.
// *study.Study satisfies it.
type Engine interface {
	SetEngineHistograms(solverIters, poolQueue *obs.Histogram)
	CacheCounters() []memo.Counters
}

// CLI is the -trace, -machstats and -perfsnap outputs of a batch command
// (figures, report, smtsim): RegisterCLI declares the flags, Arm enables
// what they ask for before the work, and Write writes and reports every
// output after it. Arming never changes the command's results (pinned by
// TestSweepBitIdenticalWithPerfsnap).
type CLI struct {
	role                   string
	trace, mach, perfsnap  *string
	eng                    Engine
	col                    *obs.Collector
	solverIters, poolQueue *obs.Histogram
}

// RegisterCLI registers the three output flags on fs for the command role,
// whose help texts call one invocation a what ("campaign" or "run").
func RegisterCLI(fs *flag.FlagSet, role, what string) *CLI {
	machHelp := "arm the machine-counter registry and write its snapshot to <path>.json, <path>.stacks.csv and <path>.counters.csv"
	if what == "campaign" {
		machHelp += " after the campaign"
	}
	return &CLI{
		role:     role,
		trace:    fs.String("trace", "", "write a Chrome trace-event file (chrome://tracing, Perfetto) of the "+what+" here and print a time-stack report to stderr"),
		mach:     fs.String("machstats", "", machHelp),
		perfsnap: fs.String("perfsnap", "", "arm tracing, machine counters and engine histograms, and write a perf snapshot (for perfdiff) into this directory after the "+what),
	}
}

// Arm enables tracing, machine counters and engine histograms as the flags
// ask, and returns the collector that root spans report to: one of up to
// traces traces, or nil when neither -trace nor -perfsnap is set. The
// snapshot shares the -trace file's collector, so both see the same traces.
func (c *CLI) Arm(eng Engine, traces int) *obs.Collector {
	c.eng = eng
	if *c.mach != "" || *c.perfsnap != "" {
		machstats.Enable()
	}
	if *c.trace != "" || *c.perfsnap != "" {
		obs.Enable()
		c.col = obs.NewCollector(traces)
	}
	if *c.perfsnap != "" {
		c.solverIters = obs.NewHistogram(SolverIterBuckets)
		c.poolQueue = obs.NewHistogram(QueueSecondsBuckets)
		eng.SetEngineHistograms(c.solverIters, c.poolQueue)
	}
	return c.col
}

// Write writes every output the flags ask for and reports each on stderr.
// A failed output does not stop the others; the error joins every failure.
func (c *CLI) Write(stderr io.Writer) error {
	var errs []error
	if *c.trace != "" {
		report, err := c.col.DumpFile(*c.trace)
		if err != nil {
			errs = append(errs, err)
		} else {
			fmt.Fprintf(stderr, "%s: wrote %d trace(s) to %s\n\n%s", c.role, c.col.Len(), *c.trace, report)
		}
	}
	if *c.mach != "" || *c.perfsnap != "" {
		mach := machstats.Default().Snapshot()
		if *c.mach != "" {
			paths, err := mach.WriteFiles(*c.mach)
			if err != nil {
				errs = append(errs, fmt.Errorf("machstats export: %w", err))
			} else {
				fmt.Fprintf(stderr, "%s: %s\n%s: wrote %s\n", c.role, mach.FormatSummary(), c.role, strings.Join(paths, ", "))
			}
		}
		if *c.perfsnap != "" {
			snap := Capture(CaptureOpts{
				Role:   c.role,
				Traces: c.col.Snapshots(),
				Mach:   &mach,
				Histograms: []HistogramState{
					HistState(HistSolverIterations, c.solverIters.Snapshot()),
					HistState(HistPoolQueueSeconds, c.poolQueue.Snapshot()),
				},
				Caches: c.eng.CacheCounters(),
			})
			path, err := snap.WriteDir(*c.perfsnap, c.role)
			if err != nil {
				errs = append(errs, fmt.Errorf("perfsnap: %w", err))
			} else {
				fmt.Fprintf(stderr, "%s: wrote perf snapshot %s\n", c.role, path)
			}
		}
	}
	return errors.Join(errs...)
}
