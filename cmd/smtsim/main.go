// Command smtsim simulates one multi-program workload on one multi-core
// design point and prints per-thread and system-level results.
//
// Usage:
//
//	smtsim -design 4B -programs mcf,tonto,hmmer,libquantum
//	smtsim -design 2B10s -smt=false -programs mcf,mcf,mcf
//	smtsim -design 4B -engine cycle -uops 100000 -programs tonto,mcf
//	smtsim -design 4B -xcheck -programs tonto,hmmer
//	smtsim -design 4B -machstats /tmp/ms -programs tonto,mcf
//
// Exit codes: 0 success; 1 an engine error (bad design point, profiling or
// solver failure) or a cross-check tolerance violation; 2 a usage error
// (unknown flag or engine).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"smtflex/internal/buildinfo"
	"smtflex/internal/core"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
	"smtflex/internal/validate"
)

// fail prints a one-line diagnostic and exits: code 1 for engine errors,
// code 2 for usage errors (matching the flag package's own convention).
func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "smtsim: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	design := flag.String("design", "4B", "design point (4B, 8m, 20s, 3B2m, 3B5s, 2B4m, 2B10s, 1B6m, 1B15s)")
	smt := flag.Bool("smt", true, "enable SMT")
	programs := flag.String("programs", "tonto,mcf", "comma-separated benchmark names, one per thread")
	engine := flag.String("engine", "interval", "engine: interval or cycle")
	uops := flag.Uint64("uops", 100_000, "µops per thread for the cycle engine")
	profUops := flag.Uint64("profile-uops", 200_000, "µops per profiling run for the interval engine")
	outs := perfdiff.RegisterCLI(flag.CommandLine, "smtsim", "run")
	xcheck := flag.Bool("xcheck", false, "cross-validate the interval engine against the cycle engine on this workload, print the component-by-component CPI-stack delta table, and exit 1 if any delta exceeds -xcheck-tol")
	xcheckTol := flag.Float64("xcheck-tol", validate.DefaultTolerance, "cross-check tolerance: max |cycle-interval| per CPI-stack component, as a fraction of total CPI")
	showVersion := flag.Bool("version", false, "print version information and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage: smtsim [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(),
			"\nExit codes:\n  0  success\n  1  engine error (bad design, profiling or solver failure) or cross-check violation\n  2  usage error (bad flag or engine)\n")
	}
	flag.Parse()

	if *showVersion {
		fmt.Println("smtsim", buildinfo.Get())
		return
	}

	sim := core.NewSimulator(core.WithUopCount(*profUops))
	progs := strings.Split(*programs, ",")
	for i := range progs {
		progs[i] = strings.TrimSpace(progs[i])
	}

	// Arming the outputs never changes the results.
	col := outs.Arm(sim.Study(), 1)
	tctx, root := obs.StartTrace(context.Background(), col, "smtsim")

	switch {
	case *xcheck:
		src := sim.Source()
		ck, err := validate.RunCrossCheck(src, *design, *smt, progs, src.Warmup, src.UopCount, *xcheckTol)
		if err != nil {
			fail(1, "%v", err)
		}
		fmt.Print(ck.Render())
		if !ck.OK() {
			root.End()
			if err := outs.Write(os.Stderr); err != nil {
				fail(1, "%v", err)
			}
			fail(1, "cross-check failed: %d component delta(s) exceed %.1f%% of total CPI",
				len(ck.Failures()), 100*ck.Tolerance)
		}
	case *engine == "interval":
		res, err := sim.RunMixCtx(tctx, *design, *smt, progs)
		if err != nil {
			fail(1, "%v", err)
		}
		fmt.Printf("design=%s smt=%t threads=%d\n", *design, *smt, len(progs))
		fmt.Printf("STP              %.3f\n", res.STP)
		fmt.Printf("ANTT             %.3f\n", res.ANTT)
		fmt.Printf("power (gated)    %.1f W\n", res.Watts)
		fmt.Printf("power (ungated)  %.1f W\n", res.WattsUngated)
		fmt.Printf("bus utilization  %.1f %%\n", 100*res.BusUtilization)
		fmt.Printf("solver           %d iterations, residual %.2e, converged=%t\n",
			res.Diag.Iterations, res.Diag.Residual, res.Diag.Converged)
		for i, th := range res.Threads {
			st := th.Stack
			fmt.Printf("thread %2d %-12s core=%d ipc=%.3f uops/ns=%.3f cpi=%.3f base=%.3f branch=%.3f icache=%.3f l2=%.3f llc=%.3f mem=%.3f\n",
				i, th.Program, th.Core, th.IPC, th.UopsPerNs,
				st.Total(), st.Base, st.Branch, st.ICache, st.L2, st.LLC, st.Mem)
		}
	case *engine == "cycle":
		stats, err := sim.RunCycleAccurate(*design, *smt, progs, *uops)
		if err != nil {
			fail(1, "%v", err)
		}
		fmt.Printf("design=%s smt=%t threads=%d engine=cycle uops/thread=%d\n", *design, *smt, len(progs), *uops)
		for i, st := range stats {
			fmt.Printf("thread %2d %-12s ipc=%.3f cpi=%.3f mem-stall=%.2f br-stall=%.3f fetch-stall=%.3f mispredicts=%d\n",
				i, progs[i], st.IPC(), st.CPI(), st.MemStallCPI(), st.BranchStallCPI(), st.FetchStallCPI(), st.Mispredicts)
		}
	default:
		fail(2, "unknown engine %q", *engine)
	}

	root.End()
	if err := outs.Write(os.Stderr); err != nil {
		fail(1, "%v", err)
	}
}
