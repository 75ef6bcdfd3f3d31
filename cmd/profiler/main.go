// Command profiler measures and prints the interval profile of a benchmark
// on a core type: the base-CPI-versus-window curve, the branch and I-cache
// CPI components, the visible-latency calibration, and the reuse curves.
//
// Usage:
//
//	profiler -bench mcf -core big
//	profiler -bench all -core all -uops 300000
//
// Exit codes: 0 success; 1 an engine error (measurement, profile I/O);
// 2 a usage error (unknown flag, benchmark or core type).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"smtflex/internal/buildinfo"
	"smtflex/internal/config"
	"smtflex/internal/journal"
	"smtflex/internal/profiler"
	"smtflex/internal/workload"
)

// fail prints a one-line diagnostic and exits: code 1 for engine errors,
// code 2 for usage errors (matching the flag package's own convention).
func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "profiler: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	bench := flag.String("bench", "all", "benchmark name or 'all'")
	coreType := flag.String("core", "all", "core type: big, medium, small or 'all'; a benchmark's first profile measures all three core types at once, and -save writes only the requested ones")
	uops := flag.Uint64("uops", 200_000, "µops per measurement run")
	curves := flag.Bool("curves", false, "also print the miss-ratio curves")
	load := flag.String("load", "", "load previously saved profiles from this JSON file (saved at the same -uops)")
	save := flag.String("save", "", "save all measured profiles to this JSON file")
	showVersion := flag.Bool("version", false, "print version information and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage: profiler [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(),
			"\nExit codes:\n  0  success\n  1  engine error (measurement or profile I/O failed)\n  2  usage error (bad flag, benchmark or core type)\n")
	}
	flag.Parse()

	if *showVersion {
		fmt.Println("profiler", buildinfo.Get())
		return
	}

	src := profiler.NewSource(*uops)
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fail(1, "%v", err)
		}
		n, err := src.LoadJSON(f)
		f.Close()
		if err != nil {
			fail(1, "%s: %v", *load, err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d profiles from %s\n", n, *load)
	}

	benches := workload.Names()
	if *bench != "all" {
		benches = []string{*bench}
	}
	var types []config.CoreType
	switch *coreType {
	case "all":
		types = []config.CoreType{config.Big, config.Medium, config.Small}
	case "big":
		types = []config.CoreType{config.Big}
	case "medium":
		types = []config.CoreType{config.Medium}
	case "small":
		types = []config.CoreType{config.Small}
	default:
		fail(2, "unknown core type %q", *coreType)
	}

	for _, b := range benches {
		spec, err := workload.ByName(b)
		if err != nil {
			fail(2, "%v", err)
		}
		for _, ct := range types {
			p, err := src.Profile(spec, ct)
			if err != nil {
				fail(1, "measuring %s on %s: %v", b, ct, err)
			}
			fmt.Printf("%s on %s core:\n", b, ct)
			fmt.Printf("  base CPI by window: ")
			for i, w := range p.BaseWindows {
				fmt.Printf("%d:%.3f ", w, p.BaseCPIs[i])
			}
			fmt.Println()
			fmt.Printf("  branch CPI %.4f (%.2f mispredicts/kµop)\n", p.BrCPI, p.BrMPKU)
			fmt.Printf("  icache CPI %.4f (%.1f block transitions/kµop)\n", p.L1ICPI, p.IBlockAPKU)
			fmt.Printf("  memory CPI %.4f (visible %.2f..%.2f, const %.4f)\n",
				p.BaselineMemCPI, p.Visible, p.VisibleMin, p.MemConstCPI)
			fmt.Printf("  data accesses/kµop %.1f\n", p.DataAPKU)
			if *curves {
				fmt.Printf("  data miss curve:")
				for i, c := range p.DCurve.Capacities {
					fmt.Printf(" %dKB:%.3f", c*64/1024, p.DCurve.Ratios[i])
				}
				fmt.Println()
			}
		}
	}

	if *save != "" {
		// Crash-safe: an interrupted run never truncates an existing
		// profile file.
		var buf bytes.Buffer
		if err := src.SaveJSON(&buf); err != nil {
			fail(1, "%v", err)
		}
		if err := journal.WriteAtomic(*save, buf.Bytes()); err != nil {
			fail(1, "%v", err)
		}
		fmt.Fprintf(os.Stderr, "saved profiles to %s\n", *save)
	}
}
