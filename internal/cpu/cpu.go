// Package cpu implements the cycle-level core timing models: the out-of-order
// cores (big, medium) and the in-order core (small) of Table 1, with SMT via
// static ROB partitioning and round-robin fetch, and fine-grained
// multithreading for the in-order core.
//
// The models are event-driven timestamp simulators: every µop receives
// dispatch, issue, completion and commit timestamps derived from its
// dependencies and from structural resources (dispatch bandwidth, functional
// units, load/store ports, the ROB partition, the memory hierarchy). This is
// the same level of abstraction as the Sniper simulator used in the paper —
// cycle-approximate, not RTL — and is deterministic for a given trace.
package cpu

import (
	"fmt"
	"math"

	"smtflex/internal/branch"
	"smtflex/internal/cache"
	"smtflex/internal/config"
	"smtflex/internal/isa"
	"smtflex/internal/machstats"
	"smtflex/internal/trace"
)

// MemorySystem is the chip-level memory hierarchy a core issues accesses to.
// Implementations combine per-core private caches with the shared LLC and
// DRAM. Latencies are returned in core cycles.
type MemorySystem interface {
	// Data performs a data access for coreID at time now and returns the
	// total load-to-use latency in cycles.
	Data(coreID int, addr uint64, kind cache.AccessKind, now float64) float64
	// Fetch performs an instruction fetch for coreID at time now and returns
	// the fetch latency in cycles beyond a first-level hit.
	Fetch(coreID int, addr uint64, now float64) float64
}

// MispredictPenalty is the front-end refill penalty after a branch
// misprediction, in cycles, on top of waiting for the branch to resolve.
const MispredictPenalty = 5

// BTBMissPenalty is the fetch bubble when a taken control transfer's target
// is absent from the branch target buffer (the front end cannot redirect
// until the target is computed), in cycles.
const BTBMissPenalty = 2

// depWindow is how far back register dependencies are tracked; the trace
// generator never emits longer distances.
const depWindow = 512

// Functional-unit groups; each has one bandwidth watermark per core.
const (
	fuALU = iota
	fuLS
	fuMD
	fuFP
	numFUs
)

// fuOf maps a µop class to its unit group; IntAlu, Branch and Jump use the
// zero value, the ALUs.
var fuOf = [isa.NumClasses]uint8{
	isa.IntMul: fuMD, isa.IntDiv: fuMD,
	isa.FpAdd: fuFP, isa.FpMul: fuFP, isa.FpDiv: fuFP,
	isa.Load: fuLS, isa.Store: fuLS,
}

// latency is Class.Latency as a float64, by class.
var latency = func() (l [isa.NumClasses]float64) {
	for cl := range l {
		l[cl] = float64(isa.Class(cl).Latency())
	}
	return l
}()

// Ideal flags selectively perfect parts of the machine; the profiler uses
// them to measure CPI components by successive idealization.
type Ideal struct {
	// Branch makes every branch correctly predicted.
	Branch bool
	// ICache makes every instruction fetch hit.
	ICache bool
	// DCache makes every data access an L1 hit.
	DCache bool
}

// ThreadStats accumulates per-hardware-thread activity.
type ThreadStats struct {
	Uops        uint64
	Loads       uint64
	Stores      uint64
	Branches    uint64
	Mispredicts uint64
	// FinishTime is the commit time of the last retired µop, in cycles.
	FinishTime float64
	// StartTime is the dispatch time of the first µop.
	StartTime float64
	// Stall attribution, in cycles (approximate — the timestamp model
	// attributes each µop's issue delay beyond its dispatch to the memory
	// hierarchy, and front-end redirects to branches and instruction fetch).
	MemStallCycles    float64
	BranchStallCycles float64
	FetchStallCycles  float64
}

// CPI returns cycles per µop over the thread's active interval.
func (s ThreadStats) CPI() float64 {
	if s.Uops == 0 {
		return 0
	}
	return (s.FinishTime - s.StartTime) / float64(s.Uops)
}

// MemStallCPI returns the attributed memory-stall cycles per µop.
func (s ThreadStats) MemStallCPI() float64 {
	if s.Uops == 0 {
		return 0
	}
	return s.MemStallCycles / float64(s.Uops)
}

// BranchStallCPI returns the attributed branch-redirect cycles per µop.
func (s ThreadStats) BranchStallCPI() float64 {
	if s.Uops == 0 {
		return 0
	}
	return s.BranchStallCycles / float64(s.Uops)
}

// FetchStallCPI returns the attributed instruction-fetch cycles per µop.
func (s ThreadStats) FetchStallCPI() float64 {
	if s.Uops == 0 {
		return 0
	}
	return s.FetchStallCycles / float64(s.Uops)
}

// Stack returns the thread's measured CPI decomposition in machstats'
// canonical component vocabulary. The cycle engine's memory-stall attribution
// is level-blind, so the stack has four components (base, branch, icache,
// mem) with base as the residual — by construction the components sum to
// CPI() up to floating-point rounding, the conservation property the
// counter-conservation test checks. A thread that retired nothing returns an
// all-zero stack (every accessor guards the division).
func (s ThreadStats) Stack() []machstats.Component {
	br := s.BranchStallCPI()
	ic := s.FetchStallCPI()
	mem := s.MemStallCPI()
	return []machstats.Component{
		{Name: machstats.CompBase, CPI: s.CPI() - br - ic - mem},
		{Name: machstats.CompBranch, CPI: br},
		{Name: machstats.CompICache, CPI: ic},
		{Name: machstats.CompMem, CPI: mem},
	}
}

// IPC returns µops per cycle.
func (s ThreadStats) IPC() float64 {
	c := s.CPI()
	if c == 0 {
		return 0
	}
	return 1 / c
}

// threadCtx is one hardware thread context.
type threadCtx struct {
	reader trace.Reader
	// replay is reader's concrete type when it replays a recording: the
	// core then decodes each µop in place instead of calling the interface.
	replay *trace.Replay
	// seq is the number of µops dispatched.
	seq uint64
	// doneAt[i%depWindow] is the completion time of µop i. The extra last
	// slot holds -Inf, which never delays a µop: a source outside the
	// window reads it instead of taking a branch of its own.
	doneAt [depWindow + 1]float64
	// commitAt[i%robCap] is the commit time of µop i; sized to the maximum
	// partition so repartitioning never reallocates. head is seq%robCap,
	// the slot of the next µop.
	commitAt []float64
	head     int
	// frontAvail is the earliest cycle the front end can deliver the next µop.
	frontAvail float64
	// lastCommit is the commit time of the previous µop (in-order commit).
	lastCommit float64
	// lastIssue is the previous issue time (in-order issue for small cores).
	lastIssue float64
	// fetchBlock is the current I-cache block.
	fetchBlock uint64
	pred       branch.Predictor
	btb        *branch.BTB
	// pendingCtl is the PC of the previous µop when it was a taken control
	// transfer; the next µop's PC is its target, checked against the BTB.
	pendingCtl    uint64
	hasPendingCtl bool
	stats         ThreadStats
}

// Core is one core with up to SMTContexts hardware threads.
type Core struct {
	cfg    config.Core
	id     int
	mem    MemorySystem
	ideal  Ideal
	smtOn  bool
	thread []*threadCtx

	// dispatchFree is the next cycle fraction at which a dispatch slot is
	// available; each µop consumes slot, 1/width.
	dispatchFree float64
	slot         float64
	// robCap is each context's commit-window size, and part the ROB slots
	// each context may fill: robPartition for out-of-order cores (at most
	// robCap), robCap for in-order ones. part changes only when a context
	// is attached.
	robCap, part int
	// Functional-unit bandwidth watermarks, one per unit group. Contention
	// is modelled as bandwidth in processing-order time rather than as
	// future reservations: a µop whose operands are ready far in the future
	// must not block the unit for other (SMT) µops issuing earlier. occ is
	// the group time one µop of each class takes: 1/units, times the
	// latency for the unpipelined dividers.
	fuClock [numFUs]float64
	occ     [isa.NumClasses]float64
}

// NewCore builds a core. mem must not be nil; cfg must validate. Both
// failures return errors rather than panicking, so a malformed design point
// fails its own evaluation and nothing else.
func NewCore(cfg config.Core, id int, mem MemorySystem, smtOn bool, ideal Ideal) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil {
		return nil, fmt.Errorf("cpu: nil memory system for core %d", id)
	}
	robCap := cfg.ROBSize
	if robCap == 0 {
		robCap = 2 * cfg.Width // in-order: small commit window
	}
	c := &Core{
		cfg:    cfg,
		id:     id,
		mem:    mem,
		ideal:  ideal,
		smtOn:  smtOn,
		slot:   1 / float64(cfg.Width),
		robCap: robCap,
	}
	var perOp [numFUs]float64
	perOp[fuALU] = 1 / float64(cfg.IntALUs)
	perOp[fuLS] = 1 / float64(cfg.LoadStorePorts)
	perOp[fuMD] = 1 / float64(cfg.MulDivUnits)
	perOp[fuFP] = 1 / float64(cfg.FPUnits)
	for cl := range c.occ {
		c.occ[cl] = perOp[fuOf[cl]]
		if !isa.Class(cl).Pipelined() {
			c.occ[cl] *= latency[cl]
		}
	}
	return c, nil
}

// Config returns the core configuration.
func (c *Core) Config() config.Core { return c.cfg }

// ID returns the core's chip-wide identifier.
func (c *Core) ID() int { return c.id }

// AttachThread binds a trace to the next free hardware context and returns
// the context index. It fails when all contexts are occupied (or one context
// without SMT).
func (c *Core) AttachThread(r trace.Reader) (int, error) {
	limit := c.cfg.SMTContexts
	if !c.smtOn {
		limit = 1
	}
	if len(c.thread) >= limit {
		return -1, fmt.Errorf("cpu: core %d has no free context (limit %d)", c.id, limit)
	}
	// A bimodal predictor reaches steady state within the simulated window;
	// with gshare the history randomization of synthetic traces would leave
	// the tables undertrained at SimPoint-scale run lengths.
	t := &threadCtx{
		reader:   r,
		commitAt: make([]float64, c.robCap),
		pred:     branch.NewBimodal(13),
		btb:      branch.NewBTB(10),
	}
	t.doneAt[depWindow] = math.Inf(-1)
	t.replay, _ = r.(*trace.Replay)
	c.thread = append(c.thread, t)
	c.repartition()
	return len(c.thread) - 1, nil
}

// NumThreads returns the number of attached threads.
func (c *Core) NumThreads() int { return len(c.thread) }

// repartition recomputes part after a context is attached.
func (c *Core) repartition() {
	c.part = c.robCap
	if c.cfg.OutOfOrder {
		c.part = min(c.robPartition(), c.robCap)
	}
}

// robPartition is the per-thread ROB share under static partitioning.
func (c *Core) robPartition() int {
	p := c.cfg.ROBSize / len(c.thread)
	if p < c.cfg.Width {
		p = c.cfg.Width
	}
	return p
}

// ThreadTime returns the earliest time context ti can dispatch its next
// µop: the front-end clock, the shared dispatch bandwidth clock and the
// thread's ROB-partition gate. The chip scheduler advances the globally
// least-advanced thread first; including the ROB gate here is essential for
// SMT, otherwise a memory-stalled thread would be stepped anyway and its
// far-future dispatch reservation would drag the shared dispatch clock
// forward, starving its co-runners.
func (c *Core) ThreadTime(ti int) float64 {
	t := c.thread[ti]
	tm := t.frontAvail
	if c.dispatchFree > tm {
		tm = c.dispatchFree
	}
	if gate := c.robGate(t); gate > tm {
		tm = gate
	}
	return tm
}

// robGate returns the commit time of the µop whose ROB slot the thread's
// next µop needs, or 0 when the partition has room.
func (c *Core) robGate(t *threadCtx) float64 {
	if t.seq < uint64(c.part) {
		return 0
	}
	// The slot of µop seq-part: (seq-part) mod robCap, from head = seq mod
	// robCap without a division.
	i := t.head - c.part
	if i < 0 {
		i += c.robCap
	}
	return t.commitAt[i]
}

// ThreadStats returns statistics for context ti.
func (c *Core) ThreadStats(ti int) ThreadStats { return c.thread[ti].stats }

// RetiredUops returns how many µops context ti has retired: the one
// statistic the chip's run loop reads after every step, without copying
// the rest of ThreadStats.
func (c *Core) RetiredUops(ti int) uint64 { return c.thread[ti].stats.Uops }

// bucketIssue charges one µop against a unit group's bandwidth watermark
// and returns its issue time. The watermark never falls behind now (unused
// slots expire) and advances by occPerOp per µop; a µop whose operands are
// ready beyond the watermark issues at operand-ready time without blocking
// the group — bandwidth is consumed in processing order, future slots are
// never reserved (essential for SMT fairness).
func bucketIssue(clock *float64, now, ready, occPerOp float64) float64 {
	if *clock < now {
		*clock = now
	}
	issue := ready
	if *clock > issue {
		issue = *clock
	}
	*clock += occPerOp
	return issue
}

// srcDone returns the completion time of the µop d before the next one, or
// -Inf when there is no such µop in the dependency window.
func (t *threadCtx) srcDone(d int32) float64 {
	i := (t.seq - uint64(d)) % depWindow
	if d <= 0 || uint64(d) > t.seq || d >= depWindow {
		i = depWindow
	}
	return t.doneAt[i]
}

// StepThread dispatches and times one µop for context ti. It returns the
// µop's commit time.
func (c *Core) StepThread(ti int) float64 {
	t := c.thread[ti]
	var u isa.Uop
	if t.replay != nil {
		t.replay.Decode(&u)
	} else {
		u = t.reader.Next()
	}

	if t.stats.Uops == 0 {
		t.stats.StartTime = t.frontAvail
	}

	// --- Front end: BTB + I-cache + dispatch bandwidth ---
	if t.hasPendingCtl {
		t.hasPendingCtl = false
		if !c.ideal.Branch && !t.btb.Lookup(t.pendingCtl, u.PC) {
			t.frontAvail += BTBMissPenalty
			t.stats.FetchStallCycles += BTBMissPenalty
		}
	}
	blk := cache.BlockAddr(u.PC)
	if blk != t.fetchBlock {
		t.fetchBlock = blk
		if !c.ideal.ICache {
			extra := c.mem.Fetch(c.id, u.PC, t.frontAvail)
			t.frontAvail += extra
			t.stats.FetchStallCycles += extra
		}
	}
	dispatch := t.frontAvail
	if c.dispatchFree > dispatch {
		dispatch = c.dispatchFree
	}

	// --- ROB partition gate (OoO) / issue-order gate (in-order) ---
	if gate := c.robGate(t); gate > dispatch {
		dispatch = gate
	}
	c.dispatchFree = dispatch + c.slot

	// --- Register dependencies ---
	ready := dispatch
	if src := t.srcDone(u.SrcDist[0]); src > ready {
		ready = src
	}
	if src := t.srcDone(u.SrcDist[1]); src > ready {
		ready = src
	}

	// --- In-order issue constraint ---
	if !c.cfg.OutOfOrder && t.lastIssue > ready {
		ready = t.lastIssue
	}

	// --- Functional unit ---
	// A class outside the vocabulary executes as IntAlu does.
	cl := u.Class
	if cl >= isa.NumClasses {
		cl = isa.IntAlu
	}
	issue := bucketIssue(&c.fuClock[fuOf[cl]], dispatch, ready, c.occ[cl])
	if !c.cfg.OutOfOrder {
		t.lastIssue = issue
	}

	// --- Execution latency ---
	lat := latency[cl]
	switch u.Class {
	case isa.Load:
		t.stats.Loads++
		if c.ideal.DCache {
			lat = float64(c.cfg.L1D.LatencyCycles)
		} else {
			lat = c.mem.Data(c.id, u.Addr, cache.Read, issue)
			if extra := lat - float64(c.cfg.L1D.LatencyCycles); extra > 0 {
				t.stats.MemStallCycles += extra
			}
		}
	case isa.Store:
		t.stats.Stores++
		// Stores retire through a write buffer: the µop completes quickly,
		// but the access still updates cache state and consumes bandwidth.
		if !c.ideal.DCache {
			c.mem.Data(c.id, u.Addr, cache.Write, issue)
		}
		lat = 1
	}
	done := issue + lat
	t.doneAt[t.seq%depWindow] = done

	if u.Class.IsControl() && (u.Class == isa.Jump || u.Taken) {
		t.pendingCtl = u.PC
		t.hasPendingCtl = true
	}

	// --- Branch resolution ---
	if u.Class == isa.Branch {
		t.stats.Branches++
		misp := false
		if !c.ideal.Branch {
			pred := t.pred.Predict(u.PC)
			t.pred.Update(u.PC, u.Taken)
			misp = pred != u.Taken
		}
		if misp {
			t.stats.Mispredicts++
			redirect := done + MispredictPenalty
			if redirect > t.frontAvail {
				t.stats.BranchStallCycles += redirect - t.frontAvail
				t.frontAvail = redirect
			}
		}
	}

	// --- In-order commit ---
	commit := done
	if t.lastCommit > commit {
		commit = t.lastCommit
	}
	commit += c.slot
	t.lastCommit = commit
	t.commitAt[t.head] = commit
	if t.head++; t.head == c.robCap {
		t.head = 0
	}
	t.seq++

	t.stats.Uops++
	t.stats.FinishTime = commit
	return commit
}
