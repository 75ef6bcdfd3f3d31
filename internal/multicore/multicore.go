// Package multicore assembles cores, private caches, the shared LLC, the
// crossbar interconnect and DRAM into a whole chip, and co-simulates all
// hardware threads with the cycle engine.
//
// The chip advances the globally least-advanced thread one µop at a time
// (with round-robin tie-breaking), which keeps the shared cache and DRAM
// state approximately time-coherent across threads — the same strategy
// Sniper's parallel engine approximates with barrier quanta.
package multicore

import (
	"fmt"
	"math"

	"smtflex/internal/branch"
	"smtflex/internal/cache"
	"smtflex/internal/config"
	"smtflex/internal/cpu"
	"smtflex/internal/isa"
	"smtflex/internal/machstats"
	"smtflex/internal/mem"
	"smtflex/internal/trace"
)

// crossbarLatency is the on-chip interconnect hop latency in cycles (the
// paper uses a full crossbar at core frequency so the latency is small and
// uniform, and there is no topology contention by construction).
const crossbarLatency = 3

// coreMem is the per-core private hierarchy view; it implements
// cpu.MemorySystem by chaining L1I/L1D/L2 into the chip's shared LLC+DRAM.
// A cache the chip's ideal flags make unreachable is nil.
type coreMem struct {
	chip *Chip
	l1i  *cache.Cache
	l1d  *cache.Cache
	l2   *cache.Cache
}

// Data implements cpu.MemorySystem.
func (m *coreMem) Data(coreID int, addr uint64, kind cache.AccessKind, now float64) float64 {
	lat := float64(m.l1d.Latency())
	if hit, _ := m.l1d.Access(addr, kind); hit {
		return lat
	}
	lat += float64(m.l2.Latency())
	if hit, _ := m.l2.Access(addr, kind); hit {
		return lat
	}
	return lat + m.chip.sharedAccess(addr, kind, now+lat)
}

// Fetch implements cpu.MemorySystem.
func (m *coreMem) Fetch(coreID int, addr uint64, now float64) float64 {
	if hit, _ := m.l1i.Access(addr, cache.Read); hit {
		return 0
	}
	lat := float64(m.l2.Latency())
	if hit, _ := m.l2.Access(addr, cache.Read); hit {
		return lat
	}
	return lat + m.chip.sharedAccess(addr, cache.Read, now+lat)
}

// Chip is a whole multi-core processor.
type Chip struct {
	design config.Design
	cores  []*cpu.Core
	mems   []*coreMem
	llc    *cache.Cache
	dram   *mem.DRAM

	// threads maps a chip-wide thread id to its (core, context) location.
	threads []threadLoc
	// served provides round-robin tie-breaking for the scheduler.
	served []uint64
	clock  uint64
}

type threadLoc struct {
	core int
	ctx  int
}

// sharedAccess goes through the crossbar to the LLC and, on miss, to DRAM.
// A dirty line evicted by the fill is written back to memory, consuming bus
// bandwidth (but not delaying the demand access, which is serviced first).
func (c *Chip) sharedAccess(addr uint64, kind cache.AccessKind, now float64) float64 {
	lat := float64(crossbarLatency + c.llc.Latency())
	hit, evictedDirty := c.llc.Access(addr, kind)
	if hit {
		return lat
	}
	start := uint64(now + lat)
	ready := c.dram.Access(cache.BlockAddr(addr), start)
	if evictedDirty {
		c.dram.Writeback(cache.BlockAddr(addr), ready)
	}
	return lat + float64(ready-start)
}

// New builds a chip for the design. Ideal flags apply to every core and are
// used by the profiler; normal simulations pass the zero value.
//
// The chip builds only the caches a core can reach: a core fetches through
// L1I, L2 and the LLC unless its I-cache is ideal, and accesses data
// through L1D, L2 and the LLC unless its D-cache is ideal. An absent cache
// reports zero statistics. The profiler's runs that perfect both (13 of a
// benchmark's 21) so never allocate and zero the LLC's 2 MB of lines.
func New(d config.Design, ideal cpu.Ideal) (*Chip, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	fetches, accesses := !ideal.ICache, !ideal.DCache
	// build returns a cache for cfg when used is set, and nil otherwise.
	build := func(cfg cache.Config, used bool) (*cache.Cache, error) {
		if !used {
			return nil, nil
		}
		return cache.New(cfg)
	}
	llcCfg := cache.Config{
		Name:          "LLC",
		SizeBytes:     d.LLC.SizeBytes,
		Assoc:         d.LLC.Assoc,
		BlockBytes:    isa.MemBlockSize,
		LatencyCycles: d.LLC.LatencyCycles,
	}
	llc, err := build(llcCfg, fetches || accesses)
	if err != nil {
		return nil, fmt.Errorf("multicore: design %s: %w", d.Name, err)
	}
	dram, err := mem.New(config.MemConfig(d.MemBandwidthGBps))
	if err != nil {
		return nil, fmt.Errorf("multicore: design %s: %w", d.Name, err)
	}
	c := &Chip{
		design: d,
		llc:    llc,
		dram:   dram,
	}
	for i, cc := range d.Cores {
		l1i, err := build(cc.L1I, fetches)
		if err != nil {
			return nil, fmt.Errorf("multicore: design %s core %d: %w", d.Name, i, err)
		}
		l1d, err := build(cc.L1D, accesses)
		if err != nil {
			return nil, fmt.Errorf("multicore: design %s core %d: %w", d.Name, i, err)
		}
		l2, err := build(cc.L2, fetches || accesses)
		if err != nil {
			return nil, fmt.Errorf("multicore: design %s core %d: %w", d.Name, i, err)
		}
		cm := &coreMem{chip: c, l1i: l1i, l1d: l1d, l2: l2}
		core, err := cpu.NewCore(cc, i, cm, d.SMTEnabled, ideal)
		if err != nil {
			return nil, fmt.Errorf("multicore: design %s: %w", d.Name, err)
		}
		c.mems = append(c.mems, cm)
		c.cores = append(c.cores, core)
	}
	return c, nil
}

// Design returns the chip's design point.
func (c *Chip) Design() config.Design { return c.design }

// Core returns core i.
func (c *Chip) Core(i int) *cpu.Core { return c.cores[i] }

// AttachThread places a trace on the given core and returns the chip-wide
// thread id.
func (c *Chip) AttachThread(coreID int, r trace.Reader) (int, error) {
	if coreID < 0 || coreID >= len(c.cores) {
		return -1, fmt.Errorf("multicore: core %d out of range", coreID)
	}
	ctx, err := c.cores[coreID].AttachThread(r)
	if err != nil {
		return -1, err
	}
	c.threads = append(c.threads, threadLoc{core: coreID, ctx: ctx})
	c.served = append(c.served, 0)
	return len(c.threads) - 1, nil
}

// NumThreads returns the number of attached threads.
func (c *Chip) NumThreads() int { return len(c.threads) }

// ThreadStats returns the statistics of chip thread id.
func (c *Chip) ThreadStats(id int) cpu.ThreadStats {
	loc := c.threads[id]
	return c.cores[loc.core].ThreadStats(loc.ctx)
}

// Run co-simulates until every thread has retired at least target µops, then
// returns per-thread statistics. Threads that reach the target early keep
// running (their traces restart automatically via the generator's unbounded
// stream) so shared-resource pressure stays realistic, matching the paper's
// methodology of restarting finished programs.
func (c *Chip) Run(target uint64) []cpu.ThreadStats {
	switch len(c.threads) {
	case 0:
		return nil
	case 1:
		c.runOne(target)
	default:
		c.runShared(target)
	}
	out := make([]cpu.ThreadStats, len(c.threads))
	for i, loc := range c.threads {
		out[i] = c.cores[loc.core].ThreadStats(loc.ctx)
	}
	return out
}

// runOne runs a one-thread chip, such as a one-program cycle-engine or
// cross-check run (profiling steps its chips in lockstep passes, not through
// Run): with nothing to schedule, the thread steps until it has retired
// target µops, or once if it already has, exactly as runShared would step it.
func (c *Chip) runOne(target uint64) {
	loc := c.threads[0]
	core := c.cores[loc.core]
	steps := uint64(1)
	if done := core.RetiredUops(loc.ctx); done < target {
		steps = target - done
	}
	for i := uint64(0); i < steps; i++ {
		core.StepThread(loc.ctx)
	}
	c.clock += steps
	c.served[0] = c.clock
}

// runShared co-simulates several threads, stepping the least-advanced one
// each time, until every thread has retired at least target µops.
func (c *Chip) runShared(target uint64) {
	remaining := len(c.threads)
	reached := make([]bool, len(c.threads))
	for remaining > 0 {
		id := c.pickNext()
		loc := c.threads[id]
		core := c.cores[loc.core]
		core.StepThread(loc.ctx)
		c.clock++
		c.served[id] = c.clock
		if !reached[id] && core.RetiredUops(loc.ctx) >= target {
			reached[id] = true
			remaining--
		}
	}
}

// pickNext selects the thread with the smallest front-end time, breaking
// ties in least-recently-served order (round-robin fetch across contexts).
func (c *Chip) pickNext() int {
	best := -1
	bestTime := math.Inf(1)
	var bestServed uint64
	for id, loc := range c.threads {
		tm := c.cores[loc.core].ThreadTime(loc.ctx)
		if tm < bestTime || (tm == bestTime && c.served[id] < bestServed) {
			best, bestTime, bestServed = id, tm, c.served[id]
		}
	}
	return best
}

// statsOf returns a cache's statistics, zero for an absent one.
func statsOf(c *cache.Cache) cache.Stats {
	if c == nil {
		return cache.Stats{}
	}
	return c.Stats
}

// LLCStats returns shared cache statistics.
func (c *Chip) LLCStats() cache.Stats { return statsOf(c.llc) }

// DRAMStats returns memory statistics.
func (c *Chip) DRAMStats() mem.Stats { return c.dram.Stats }

// CoreCacheStats returns (L1I, L1D, L2) statistics for core i.
func (c *Chip) CoreCacheStats(i int) (l1i, l1d, l2 cache.Stats) {
	m := c.mems[i]
	return statsOf(m.l1i), statsOf(m.l1d), statsOf(m.l2)
}

// PublishMachStats publishes the chip's accumulated machine state into the
// machstats registry: per-thread CPI-stack records (engine "cycle"),
// per-thread event counters, per-core private-cache counters, and the
// shared LLC and DRAM counters. benchmarks labels each chip thread by the
// workload it ran; a short or nil slice leaves the label empty. A no-op
// costing one atomic load while machstats is disabled, so default runs pay
// nothing and stay bit-identical — the chip is never mutated here.
func (c *Chip) PublishMachStats(benchmarks []string) {
	if !machstats.Enabled() {
		return
	}
	for id, loc := range c.threads {
		st := c.cores[loc.core].ThreadStats(loc.ctx)
		bench := ""
		if id < len(benchmarks) {
			bench = benchmarks[id]
		}
		machstats.RecordStack(machstats.StackRecord{
			Engine:     "cycle",
			Design:     c.design.Name,
			Benchmark:  bench,
			Core:       loc.core,
			Thread:     id,
			Components: st.Stack(),
		})
		machstats.Add("cycle.uops", st.Uops)
		machstats.Add("cycle.loads", st.Loads)
		machstats.Add("cycle.stores", st.Stores)
		branch.Stats{Lookups: st.Branches, Mispredicts: st.Mispredicts}.Publish("cycle.branch")
		machstats.AddCycles("cycle.mem_stall_cycles", st.MemStallCycles)
		machstats.AddCycles("cycle.branch_stall_cycles", st.BranchStallCycles)
		machstats.AddCycles("cycle.fetch_stall_cycles", st.FetchStallCycles)
	}
	for i := range c.mems {
		l1i, l1d, l2 := c.CoreCacheStats(i)
		l1i.Publish("cycle.cache.l1i")
		l1d.Publish("cycle.cache.l1d")
		l2.Publish("cycle.cache.l2")
	}
	c.LLCStats().Publish("cycle.cache.llc")
	c.dram.Stats.Publish("cycle.dram")
	machstats.Add("cycle.chip_runs", 1)
}
