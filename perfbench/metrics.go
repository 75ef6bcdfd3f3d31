package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smtflex/internal/memo"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload reports all
// of them; settings.json says what each one measures on each workload and
// which workload-specific metric it carries. The workload's other figures,
// tail latencies and wall-clock throughputs among them, are printed as
// metric lines: on a VM whose CPUs the hypervisor shares, stolen time moves
// them far more than any bound could allow.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
	{"lat_p50_ms", "ms"},
}

// memoCaches are the engine's memo caches by their counter names.
var memoCaches = []string{"solo", "sweeps", "profiles", "curves", "fleet", "fleet-sweeps", "cells"}

// spanLayers are the layers the benchmark spans inside a workload's timed
// phase; the other layers are measured by the probes after it.
var spanLayers = []string{"profiler", "study", "server", "cluster", "loadgen"}

// perLayer lists the metrics of a traced run, every workload reporting all of
// them (zero where the workload does not reach the layer).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.ns_per_uop", "ns"},
		{"trace.uops", "count"},
		{"multicore.ns_per_uop", "ns"},
		{"multicore.uops", "count"},
		{"cache.ns_per_touch", "ns"},
		{"cache.touches", "count"},
		{"profiler.profiles", "count"},
		{"profiler.curves", "count"},
		{"profiler.busy_s", "s"},
		{"profiler.ms_per_profile_p50", "ms"},
		{"profiler.ms_per_profile_max", "ms"},
		{"interval.ns_per_eval", "ns"},
		{"sched.places", "count"},
		{"sched.us_per_place_p50", "us"},
		{"sched.us_per_place_p99", "us"},
		{"contention.solves", "count"},
		{"contention.us_per_solve_p50", "us"},
		{"contention.us_per_solve_p99", "us"},
		{"contention.iterations_mean", "count"},
		{"contention.not_converged", "count"},
		{"study.cells", "count"},
		{"study.sweeps", "count"},
		{"study.sweep_ms_p50", "ms"},
		{"study.pool_queue_ms_p50", "ms"},
		{"study.pool_queue_ms_p99", "ms"},
		{"study.assemble_us_p50", "us"},
	}
	for _, c := range memoCaches {
		defs = append(defs,
			metricDef{"memo." + c + ".hits", "count"},
			metricDef{"memo." + c + ".misses", "count"},
			metricDef{"memo." + c + ".coalesced", "count"},
			metricDef{"memo." + c + ".hit_ratio", "fraction"})
	}
	defs = append(defs,
		metricDef{"server.requests", "count"},
		metricDef{"server.busy_ms_p50", "ms"},
		metricDef{"server.busy_ms_p99", "ms"},
		metricDef{"server.rejected", "count"},
		metricDef{"cluster.dispatched", "count"},
		metricDef{"cluster.dispatch_per_cell", "ratio"},
		metricDef{"cluster.hedges", "count"},
		metricDef{"cluster.retries", "count"},
		metricDef{"cluster.fallbacks", "count"},
		metricDef{"cluster.integrity_failures", "count"},
		metricDef{"cluster.steals", "count"},
		metricDef{"cluster.dispatch_ms_p50", "ms"},
		metricDef{"cluster.dispatch_ms_p99", "ms"},
		metricDef{"cluster.worker_cell_ms_p50", "ms"},
		metricDef{"cluster.wire_bytes_per_cell", "B"},
		metricDef{"journal.put_us_p50", "us"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"loadgen.late_ms_p99", "ms"},
		metricDef{"loadgen.backlog_max", "count"},
	)
	for _, l := range spanLayers {
		defs = append(defs,
			metricDef{l + ".share", "fraction"},
			metricDef{l + ".self_share", "fraction"})
	}
	return append(defs,
		metricDef{"ledger.coverage", "fraction"},
		metricDef{"tracing_overhead_frac", "fraction"})
}()

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo] + f*(s[lo+1]-s[lo])
}

// windowQuantile splits xs, kept in arrival order, into k consecutive
// windows of equal size and returns the median of their p-quantiles.
func windowQuantile(xs []float64, k int, p float64) float64 {
	k = max(1, min(k, len(xs)))
	size := len(xs) / k
	qs := make([]float64, k)
	for w := range qs {
		qs[w] = quantile(xs[w*size:(w+1)*size], p)
	}
	return quantile(qs, 0.5)
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// resetPeakRSS clears the kernel's peak-RSS mark so that peakRSSMB reports
// the timed phase alone. Without the reset (older kernels) the peak also
// covers set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// usage is a reading of the clocks a measurement is taken with: wall time,
// the process's CPU time (user and system), and the steal time the kernel
// counted over all CPUs, the time the hypervisor ran another guest while a
// CPU of this one was ready to run.
type usage struct {
	wall       time.Time
	cpu, steal time.Duration
}

func readUsage() usage {
	u := usage{wall: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := bytes.Cut(b, []byte("\n"))
		// cpu user nice system idle iowait irq softirq steal ..., in
		// clock ticks of 10 ms.
		if f := strings.Fields(string(line)); len(f) > 8 && f[0] == "cpu" {
			if ticks, err := strconv.ParseInt(f[8], 10, 64); err == nil {
				u.steal = time.Duration(ticks) * 10 * time.Millisecond
			}
		}
	}
	return u
}

// spent is what a measurement used between two readings.
type spent struct{ wall, cpu, steal time.Duration }

func (u usage) since(start usage) spent {
	return spent{wall: u.wall.Sub(start.wall), cpu: u.cpu - start.cpu, steal: u.steal - start.steal}
}

func (s spent) add(t spent) spent {
	return spent{wall: s.wall + t.wall, cpu: s.cpu + t.cpu, steal: s.steal + t.steal}
}

// unstolen is the wall time less the time stolen from each CPU: what the
// phase would have taken had the hypervisor left every CPU to this VM. It
// holds for phases that keep every CPU busy, and equals the wall time on a
// host without steal.
func (s spent) unstolen() time.Duration {
	return s.wall - s.steal/time.Duration(runtime.NumCPU())
}

// memDelta reports allocation and GC activity between two MemStats reads.
func memDelta(layers map[string]float64, before, after *runtime.MemStats) {
	layers["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	layers["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	layers["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

// timedPhase brackets a workload's timed phase: peak RSS and memory
// statistics cover exactly the work between start and stop.
type timedPhase struct {
	start  time.Time
	before runtime.MemStats
}

// startTimed returns the heap that set-up freed to the kernel before it
// clears the peak-RSS mark: a collection alone keeps those pages resident,
// and the peak would then show set-up's high-water mark, not the phase's.
func startTimed() *timedPhase {
	p := &timedPhase{}
	debug.FreeOSMemory()
	runtime.ReadMemStats(&p.before)
	resetPeakRSS()
	p.start = time.Now()
	return p
}

// stop ends the phase, records peak RSS and the runtime deltas, and returns
// the phase's wall time.
func (p *timedPhase) stop(e2e, layers map[string]float64) time.Duration {
	wall := time.Since(p.start)
	e2e["peak_rss_mb"] = peakRSSMB()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	memDelta(layers, &p.before, &after)
	return wall
}

// addCounters sums memo counters by cache name into the ledger.
func addCounters(layers map[string]float64, cs []memo.Counters) {
	for _, c := range cs {
		layers["memo."+c.Name+".hits"] += float64(c.Hits)
		layers["memo."+c.Name+".misses"] += float64(c.Misses)
		layers["memo."+c.Name+".coalesced"] += float64(c.Coalesced)
	}
}

// finishMemo derives every cache's hit ratio (zero for caches the workload
// never reached).
func finishMemo(layers map[string]float64) {
	for _, c := range memoCaches {
		h, m := layers["memo."+c+".hits"], layers["memo."+c+".misses"]
		r := 0.0
		if h+m > 0 {
			r = h / (h + m)
		}
		layers["memo."+c+".hit_ratio"] = r
	}
}

// engineHists are the solver-iteration and pool-queue histograms a workload
// installs on every Study it drives, through Study.SetEngineHistograms, in
// traced and untraced passes alike.
type engineHists struct {
	iters, queue *obs.Histogram
}

// newEngineHists uses the perf-snapshot layer's canonical buckets, as the
// daemon's own histograms do.
func newEngineHists() engineHists {
	return engineHists{
		iters: obs.NewHistogram(perfdiff.SolverIterBuckets),
		queue: obs.NewHistogram(perfdiff.QueueSecondsBuckets),
	}
}

func (h engineHists) report(layers map[string]float64) {
	it := h.iters.Snapshot()
	if it.Count > 0 {
		layers["contention.iterations_mean"] = it.Sum / float64(it.Count)
	}
	q := h.queue.Snapshot()
	layers["study.pool_queue_ms_p50"] = q.Quantile(0.50) * 1000
	layers["study.pool_queue_ms_p99"] = q.Quantile(0.99) * 1000
}
