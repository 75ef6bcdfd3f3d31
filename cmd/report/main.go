// Command report runs the full simulation campaign, evaluates every finding
// of the paper against the measured results, and emits a Markdown report —
// the machine-generated core of EXPERIMENTS.md.
//
// Usage:
//
//	report -uops 200000 > EXPERIMENTS-generated.md
//	report -figures -journal run.jnl > EXPERIMENTS-generated.md
//
// With -journal DIR, the measured profiles (after the findings campaign and
// after each figure) and every completed figure table are journaled
// crash-safely (see internal/journal); re-running after a crash resumes the
// campaign, re-measuring no profile and skipping finished figures, and
// reproduces byte-identical tables. The journal is guarded by -uops: a run
// with another value wipes it and starts fresh.
package main

import (
	"context"

	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"smtflex/internal/buildinfo"
	"smtflex/internal/core"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
)

func main() {
	uops := flag.Uint64("uops", 200_000, "cycle-engine µops per profiling run")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers for the experiment engine (1 = serial)")
	figures := flag.Bool("figures", false, "append every figure table to the report")
	journalDir := flag.String("journal", "", "journal directory for completed figures and measured profiles; a restarted campaign replays it and computes only the remainder")
	outs := perfdiff.RegisterCLI(flag.CommandLine, "report", "campaign")
	showVersion := flag.Bool("version", false, "print version information and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("report", buildinfo.Get())
		return
	}

	sim := core.NewSimulator(core.WithUopCount(*uops), core.WithParallelism(*workers))

	// -trace runs the findings campaign and every figure under root spans;
	// -machstats and -perfsnap collect across the whole campaign. None
	// changes the report.
	col := outs.Arm(sim.Study(), len(core.FigureIDs())+1)

	camp, err := sim.OpenCampaign(*journalDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}
	start := time.Now()

	fctx, froot := obs.StartTrace(context.Background(), col, "findings")
	findings, err := sim.Study().CheckFindings(fctx)
	froot.End()
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}
	// The findings campaign has measured every profile it needs; journal
	// them so a later crash in the figures loop resumes cheaply.
	if err := camp.SaveProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}

	fmt.Println("# Findings report")
	fmt.Println()
	fmt.Printf("Profiling fidelity: %d µops per measurement run. Campaign time: %.0f s.\n\n",
		*uops, time.Since(start).Seconds())
	fmt.Println("| # | Claim | Reproduced | Measured |")
	fmt.Println("|---|-------|------------|----------|")
	reproduced := 0
	for _, f := range findings {
		mark := "yes"
		if f.Reproduced {
			reproduced++
		} else {
			mark = "NO"
		}
		fmt.Printf("| %d | %s | %s | %s |\n", f.ID, f.Claim, mark, f.Detail)
	}
	fmt.Printf("\n%d of %d findings reproduced.\n", reproduced, len(findings))

	if *figures {
		fmt.Println()
		for _, id := range core.FigureIDs() {
			if tab, ok := camp.Table(id); ok {
				fmt.Printf("## %s\n\n```\n%s```\n\n", id, tab)
				continue
			}
			tctx, root := obs.StartTrace(context.Background(), col, id)
			tab, err := camp.Figure(tctx, id)
			root.End()
			if err != nil {
				fmt.Fprintf(os.Stderr, "report: %s: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Printf("## %s\n\n```\n%s```\n\n", id, tab)
		}
	}

	if err := outs.Write(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}
}
