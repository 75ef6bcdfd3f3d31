// Command figures regenerates the tables and figures of the paper as
// aligned text tables (and optionally CSV files).
//
// Usage:
//
//	figures -exp all
//	figures -exp fig8,fig11 -uops 300000
//	figures -exp all -csv out/
//	figures -exp all -journal run.jnl   # resumable campaign
//
// With -journal DIR, the measured profiles and every completed figure are
// journaled crash-safely after each figure (see internal/journal);
// re-running the same command after a crash resumes the campaign, skipping
// finished figures and re-measuring no profile, and reproduces
// byte-identical tables. The journal is guarded by the campaign parameters
// (-uops, -mixes): a run with other values wipes it and starts fresh.
package main

import (
	"context"

	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"smtflex/internal/buildinfo"
	"smtflex/internal/core"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
	"smtflex/internal/study"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated figure ids (see -list), or 'all'")
	uops := flag.Uint64("uops", 200_000, "cycle-engine µops per profiling run")
	mixes := flag.Int("mixes", 12, "random heterogeneous mixes per thread count")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers for the experiment engine (1 = serial)")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	journalDir := flag.String("journal", "", "journal directory for completed figures and measured profiles; a restarted campaign replays it and computes only the remainder")
	outs := perfdiff.RegisterCLI(flag.CommandLine, "figures", "campaign")
	list := flag.Bool("list", false, "list available figure ids and exit")
	showVersion := flag.Bool("version", false, "print version information and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("figures", buildinfo.Get())
		return
	}

	if *list {
		for _, id := range core.FigureIDs() {
			fmt.Println(id)
		}
		return
	}

	// Validate every requested id before running anything: a typo must fail
	// fast, not abort a multi-minute campaign halfway through its output.
	ids := core.FigureIDs()
	if *exp != "all" {
		known := make(map[string]bool, len(ids))
		for _, id := range ids {
			known[id] = true
		}
		ids = strings.Split(*exp, ",")
		var bad []string
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
			if !known[ids[i]] {
				bad = append(bad, ids[i])
			}
		}
		if len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "figures: unknown figure id(s): %s (see -list)\n", strings.Join(bad, ", "))
			os.Exit(2)
		}
	}

	sim := core.NewSimulator(core.WithUopCount(*uops), core.WithMixesPerCount(*mixes), core.WithParallelism(*workers))

	// -trace runs every figure under its own root span; -machstats and
	// -perfsnap collect across the whole campaign. None changes the tables.
	col := outs.Arm(sim.Study(), len(ids)+1)

	camp, err := sim.OpenCampaign(*journalDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
	if camp.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "figures: resuming from %s: %d figure(s) already complete\n", *journalDir, camp.Resumed)
	}
	if camp.Reloaded > 0 {
		fmt.Fprintf(os.Stderr, "figures: reloaded %d measured profile(s) from %s\n", camp.Reloaded, *journalDir)
	}

	for _, id := range ids {
		start := time.Now()
		if tab, ok := camp.Table(id); ok {
			fmt.Printf("== %s (resumed) ==\n%s\n", id, tab)
			writeCSV(*csvDir, id, tab)
			continue
		}
		tctx, root := obs.StartTrace(context.Background(), col, id)
		tab, err := camp.Figure(tctx, id)
		root.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("== %s (%.1fs) ==\n%s\n", id, time.Since(start).Seconds(), tab)
		writeCSV(*csvDir, id, tab)
	}

	if err := outs.Write(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

// writeCSV writes the table as <dir>/<id>.csv; a no-op when dir is empty.
func writeCSV(dir, id string, tab *study.Table) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(dir, id+".csv")
	if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}
