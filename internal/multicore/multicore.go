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
func New(d config.Design, ideal cpu.Ideal) (*Chip, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	llcCfg := cache.Config{
		Name:          "LLC",
		SizeBytes:     d.LLC.SizeBytes,
		Assoc:         d.LLC.Assoc,
		BlockBytes:    isa.MemBlockSize,
		LatencyCycles: d.LLC.LatencyCycles,
	}
	llc, err := cache.New(llcCfg)
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
		l1i, err := cache.New(cc.L1I)
		if err != nil {
			return nil, fmt.Errorf("multicore: design %s core %d: %w", d.Name, i, err)
		}
		l1d, err := cache.New(cc.L1D)
		if err != nil {
			return nil, fmt.Errorf("multicore: design %s core %d: %w", d.Name, i, err)
		}
		l2, err := cache.New(cc.L2)
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
	if len(c.threads) == 0 {
		return nil
	}
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
	out := make([]cpu.ThreadStats, len(c.threads))
	for i, loc := range c.threads {
		out[i] = c.cores[loc.core].ThreadStats(loc.ctx)
	}
	return out
}

// pickNext selects the thread with the smallest front-end time, breaking
// ties in least-recently-served order (round-robin fetch across contexts).
// A one-thread chip (every profiling run) has nothing to choose between.
func (c *Chip) pickNext() int {
	if len(c.threads) == 1 {
		return 0
	}
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

// LLCStats returns shared cache statistics.
func (c *Chip) LLCStats() cache.Stats { return c.llc.Stats }

// DRAMStats returns memory statistics.
func (c *Chip) DRAMStats() mem.Stats { return c.dram.Stats }

// CoreCacheStats returns (L1I, L1D, L2) statistics for core i.
func (c *Chip) CoreCacheStats(i int) (l1i, l1d, l2 cache.Stats) {
	m := c.mems[i]
	return m.l1i.Stats, m.l1d.Stats, m.l2.Stats
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
	c.llc.Stats.Publish("cycle.cache.llc")
	c.dram.Stats.Publish("cycle.dram")
	machstats.Add("cycle.chip_runs", 1)
}
