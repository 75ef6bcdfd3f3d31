package cpu

import (
	"testing"

	"smtflex/internal/cache"
	"smtflex/internal/config"
	"smtflex/internal/isa"
	"smtflex/internal/trace"
)

// flatMem is a MemorySystem with fixed latencies and no state, so core
// behaviour can be tested in isolation from the cache hierarchy.
type flatMem struct {
	dataLat  float64
	fetchLat float64
}

func (m flatMem) Data(int, uint64, cache.AccessKind, float64) float64 { return m.dataLat }
func (m flatMem) Fetch(int, uint64, float64) float64                  { return m.fetchLat }

// uopScript replays a fixed µop slice (repeating at the end).
type uopScript struct {
	uops []isa.Uop
	pos  uint64
}

func (s *uopScript) Next() isa.Uop {
	u := s.uops[s.pos%uint64(len(s.uops))]
	s.pos++
	return u
}
func (s *uopScript) Reset()        { s.pos = 0 }
func (s *uopScript) Count() uint64 { return s.pos }

func alu() isa.Uop { return isa.Uop{Class: isa.IntAlu} }

func script(uops ...isa.Uop) *uopScript { return &uopScript{uops: uops} }

func run(c *Core, ti, n int) ThreadStats {
	for i := 0; i < n; i++ {
		c.StepThread(ti)
	}
	return c.ThreadStats(ti)
}

func newBig(t *testing.T, mem MemorySystem, smt bool, ideal Ideal) *Core {
	t.Helper()
	return mustCore(t, config.BigCore(), mem, smt, ideal)
}

func mustCore(t *testing.T, cfg config.Core, mem MemorySystem, smt bool, ideal Ideal) *Core {
	t.Helper()
	c, err := NewCore(cfg, 0, mem, smt, ideal)
	if err != nil {
		t.Fatalf("NewCore: %v", err)
	}
	return c
}

func mustGen(t *testing.T, spec trace.Spec, seed uint64) *trace.Generator {
	t.Helper()
	g, err := trace.NewGenerator(spec, seed)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

func TestDispatchWidthBoundsIPC(t *testing.T) {
	// A balanced independent mix (2 ALU on 3 units, 1 FP add on the
	// pipelined FP unit, 1 load on 2 ports) can sustain the full dispatch
	// width of 4: CPI ≈ 1/4.
	mixed := script(alu(), alu(), isa.Uop{Class: isa.FpAdd}, isa.Uop{Class: isa.Load})
	c := newBig(t, flatMem{dataLat: 2}, false, Ideal{Branch: true, ICache: true, DCache: true})
	if _, err := c.AttachThread(mixed); err != nil {
		t.Fatal(err)
	}
	st := run(c, 0, 20000)
	cpi := st.CPI()
	want := 1.0 / 4
	if cpi < want*0.95 || cpi > want*1.25 {
		t.Fatalf("balanced mix CPI %.4f, want ~%.3f", cpi, want)
	}
}

func TestALUBoundThroughput(t *testing.T) {
	// An all-ALU stream is bound by the 3 integer ALUs, not the 4-wide
	// dispatch: CPI ≈ 1/3.
	c := newBig(t, flatMem{}, false, Ideal{Branch: true, ICache: true, DCache: true})
	c.AttachThread(script(alu()))
	cpi := run(c, 0, 20000).CPI()
	if cpi < 0.32 || cpi > 0.37 {
		t.Fatalf("ALU-bound CPI %.4f, want ~1/3", cpi)
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	// Every µop depends on the previous one: CPI ≈ 1 regardless of width.
	u := alu()
	u.SrcDist[0] = 1
	c := newBig(t, flatMem{}, false, Ideal{Branch: true, ICache: true, DCache: true})
	c.AttachThread(script(u))
	st := run(c, 0, 20000)
	if cpi := st.CPI(); cpi < 0.95 || cpi > 1.1 {
		t.Fatalf("chain CPI %.3f, want ~1", cpi)
	}
}

func TestFunctionalUnitContention(t *testing.T) {
	// All µops are FP adds on a single FP unit: CPI ≈ 1 even though the
	// core is 4-wide.
	u := isa.Uop{Class: isa.FpAdd}
	c := newBig(t, flatMem{}, false, Ideal{Branch: true, ICache: true, DCache: true})
	c.AttachThread(script(u))
	st := run(c, 0, 20000)
	if cpi := st.CPI(); cpi < 0.95 || cpi > 1.15 {
		t.Fatalf("FP-only CPI %.3f, want ~1 (single FP unit)", cpi)
	}
}

func TestUnpipelinedDivide(t *testing.T) {
	// Divides occupy the unit for their full latency: CPI ≈ latency.
	u := isa.Uop{Class: isa.IntDiv}
	c := newBig(t, flatMem{}, false, Ideal{Branch: true, ICache: true, DCache: true})
	c.AttachThread(script(u))
	st := run(c, 0, 2000)
	want := float64(isa.IntDiv.Latency())
	if cpi := st.CPI(); cpi < want*0.9 || cpi > want*1.1 {
		t.Fatalf("divide CPI %.2f, want ~%.0f", cpi, want)
	}
}

func TestROBSizeGatesMemoryOverlap(t *testing.T) {
	// Long-latency independent loads: a big window overlaps many misses, a
	// tiny window cannot. CPI(small ROB) must exceed CPI(big ROB).
	load := isa.Uop{Class: isa.Load, Addr: 0}
	mem := flatMem{dataLat: 100}

	bigCfg := config.BigCore()
	c1 := mustCore(t, bigCfg, mem, false, Ideal{Branch: true, ICache: true})
	c1.AttachThread(script(load))
	big := run(c1, 0, 5000).CPI()

	smallCfg := config.BigCore()
	smallCfg.ROBSize = 8
	c2 := mustCore(t, smallCfg, mem, false, Ideal{Branch: true, ICache: true})
	c2.AttachThread(script(load))
	small := run(c2, 0, 5000).CPI()

	if small <= big*1.5 {
		t.Fatalf("ROB gating too weak: small-ROB CPI %.2f vs big-ROB %.2f", small, big)
	}
}

func TestMispredictPenalty(t *testing.T) {
	// Unpredictable branches cost front-end refill; compare against the
	// ideal-branch run of the same stream.
	g := mustGen(t, brSpec(), 1)
	c1 := newBig(t, flatMem{}, false, Ideal{Branch: true, ICache: true, DCache: true})
	c1.AttachThread(g)
	ideal := run(c1, 0, 30000).CPI()

	g2 := mustGen(t, brSpec(), 1)
	c2 := newBig(t, flatMem{}, false, Ideal{ICache: true, DCache: true})
	c2.AttachThread(g2)
	st := run(c2, 0, 30000)
	real := st.CPI()

	if st.Mispredicts == 0 {
		t.Fatal("random branches never mispredicted")
	}
	if real <= ideal {
		t.Fatalf("mispredictions free: %.3f <= %.3f", real, ideal)
	}
}

func brSpec() trace.Spec {
	var m [isa.NumClasses]float64
	m[isa.Branch] = 0.2
	m[isa.IntAlu] = 0.8
	return trace.Spec{
		Name: "brtest", Mix: m, MeanDepDist: 6, BranchRandomFrac: 1.0,
		CodeFootprintBytes: 4096,
		Streams:            []trace.MemStream{{Weight: 1, WorkingSetBytes: 4096}},
	}
}

func TestSMTPartitioningSharesWidth(t *testing.T) {
	// Two independent-ALU threads on one core: combined throughput still
	// bounded by the width; each thread gets about half.
	mixed := func() *uopScript {
		return script(alu(), alu(), isa.Uop{Class: isa.FpAdd}, isa.Uop{Class: isa.Load})
	}
	c := newBig(t, flatMem{dataLat: 2}, true, Ideal{Branch: true, ICache: true, DCache: true})
	c.AttachThread(mixed())
	c.AttachThread(mixed())
	// Drive the contexts in strict alternation — the round-robin fetch
	// policy of the paper's SMT cores (the chip driver achieves the same
	// with least-advanced-first plus round-robin tie-breaking).
	for i := 0; i < 40000; i++ {
		c.StepThread(i % 2)
	}
	st0, st1 := c.ThreadStats(0), c.ThreadStats(1)
	total := st0.IPC() + st1.IPC()
	if total > 4.2 {
		t.Fatalf("combined IPC %.2f exceeds width", total)
	}
	if total < 3.2 {
		t.Fatalf("combined IPC %.2f too low for independent ALU streams", total)
	}
	ratio := st0.IPC() / st1.IPC()
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair SMT split: %.2f vs %.2f", st0.IPC(), st1.IPC())
	}
}

func TestSMTContextLimit(t *testing.T) {
	c := newBig(t, flatMem{}, true, Ideal{})
	for i := 0; i < 6; i++ {
		if _, err := c.AttachThread(script(alu())); err != nil {
			t.Fatalf("context %d rejected: %v", i, err)
		}
	}
	if _, err := c.AttachThread(script(alu())); err == nil {
		t.Fatal("7th context accepted on a 6-context core")
	}
}

func TestNoSMTSingleContext(t *testing.T) {
	c := newBig(t, flatMem{}, false, Ideal{})
	if _, err := c.AttachThread(script(alu())); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachThread(script(alu())); err == nil {
		t.Fatal("second context accepted with SMT disabled")
	}
}

func TestInOrderStallsOnUse(t *testing.T) {
	// In-order core: a load followed by a dependent ALU op stalls issue; the
	// same stream on the OoO core hides some latency.
	load := isa.Uop{Class: isa.Load}
	dep := alu()
	dep.SrcDist[0] = 1
	indep := alu()
	mem := flatMem{dataLat: 30}

	co := mustCore(t, config.SmallCore(), mem, false, Ideal{Branch: true, ICache: true})
	co.AttachThread(script(load, dep, indep, indep))
	inorder := run(co, 0, 8000).CPI()

	cb := mustCore(t, config.BigCore(), mem, false, Ideal{Branch: true, ICache: true})
	cb.AttachThread(script(load, dep, indep, indep))
	ooo := run(cb, 0, 8000).CPI()

	if inorder <= ooo {
		t.Fatalf("in-order (%.2f) should be slower than OoO (%.2f) on load-use stalls", inorder, ooo)
	}
}

func TestStoresAreCheap(t *testing.T) {
	// Stores retire through the write buffer: a store stream is not bound
	// by memory latency.
	st := isa.Uop{Class: isa.Store}
	c := newBig(t, flatMem{dataLat: 200}, false, Ideal{Branch: true, ICache: true})
	c.AttachThread(script(st, alu()))
	got := run(c, 0, 10000).CPI()
	if got > 1.0 {
		t.Fatalf("store stream CPI %.2f, should not see memory latency", got)
	}
}

func TestIdealFlagsMonotone(t *testing.T) {
	// Adding realism (turning ideal flags off) never reduces CPI.
	spec := brSpec()
	spec.Streams = []trace.MemStream{{Weight: 1, WorkingSetBytes: 1 << 20}}
	spec.Mix[isa.Load] = 0.3
	spec.Mix[isa.IntAlu] = 0.5
	mem := flatMem{dataLat: 50, fetchLat: 20}
	cpis := make([]float64, 0, 3)
	for _, ideal := range []Ideal{
		{Branch: true, ICache: true, DCache: true},
		{ICache: true, DCache: true},
		{},
	} {
		g := mustGen(t, spec, 5)
		c := newBig(t, mem, false, ideal)
		c.AttachThread(g)
		cpis = append(cpis, run(c, 0, 20000).CPI())
	}
	for i := 1; i < len(cpis); i++ {
		if cpis[i] < cpis[i-1]*0.99 {
			t.Fatalf("more realism lowered CPI: %v", cpis)
		}
	}
}

func TestAttachRepartitions(t *testing.T) {
	c := newBig(t, flatMem{}, true, Ideal{})
	c.AttachThread(script(alu()))
	c.AttachThread(script(alu()))
	if got := c.robPartition(); got != 64 {
		t.Fatalf("partition %d with 2 threads, want 64", got)
	}
}

func TestThreadStatsAccessors(t *testing.T) {
	var s ThreadStats
	if s.CPI() != 0 || s.IPC() != 0 {
		t.Fatal("zero stats should report zero")
	}
	s = ThreadStats{Uops: 100, StartTime: 0, FinishTime: 200}
	if s.CPI() != 2 || s.IPC() != 0.5 {
		t.Fatalf("CPI=%g IPC=%g", s.CPI(), s.IPC())
	}
}

// TestThreadStatsZeroUops pins the division-by-zero guards: a thread that
// retired nothing must report zero — not NaN — for every derived CPI, even
// when stall cycles were attributed before the first retirement, and its
// Stack() must be all-zero so exported records stay finite.
func TestThreadStatsZeroUops(t *testing.T) {
	s := ThreadStats{
		FinishTime:        100,
		MemStallCycles:    5,
		BranchStallCycles: 3,
		FetchStallCycles:  2,
	}
	for name, got := range map[string]float64{
		"CPI":            s.CPI(),
		"IPC":            s.IPC(),
		"MemStallCPI":    s.MemStallCPI(),
		"BranchStallCPI": s.BranchStallCPI(),
		"FetchStallCPI":  s.FetchStallCPI(),
	} {
		if got != 0 {
			t.Errorf("%s = %g with zero uops, want 0", name, got)
		}
	}
	for _, c := range s.Stack() {
		if c.CPI != 0 {
			t.Errorf("Stack component %s = %g with zero uops, want 0", c.Name, c.CPI)
		}
	}
}

func TestNewCoreRejectsBadInput(t *testing.T) {
	if _, err := NewCore(config.BigCore(), 0, nil, false, Ideal{}); err == nil {
		t.Fatal("nil memory accepted")
	}
	bad := config.BigCore()
	bad.Width = 0
	if _, err := NewCore(bad, 0, flatMem{}, false, Ideal{}); err == nil {
		t.Fatal("zero-width core accepted")
	}
}

func TestStallAttribution(t *testing.T) {
	// Memory stalls: loads beyond the L1 latency are attributed.
	load := isa.Uop{Class: isa.Load}
	c := newBig(t, flatMem{dataLat: 50}, false, Ideal{Branch: true, ICache: true})
	c.AttachThread(script(load, alu()))
	st := run(c, 0, 4000)
	if st.MemStallCycles <= 0 {
		t.Fatal("no memory stall attributed for 50-cycle loads")
	}
	wantPerLoad := 50.0 - float64(config.BigCore().L1D.LatencyCycles)
	perLoad := st.MemStallCycles / float64(st.Loads)
	if perLoad < wantPerLoad*0.99 || perLoad > wantPerLoad*1.01 {
		t.Fatalf("memory stall per load %.1f, want %.1f", perLoad, wantPerLoad)
	}

	// Branch stalls: mispredicted branches are attributed.
	g := mustGen(t, brSpec(), 2)
	c2 := newBig(t, flatMem{}, false, Ideal{ICache: true, DCache: true})
	c2.AttachThread(g)
	st2 := run(c2, 0, 20000)
	if st2.BranchStallCycles <= 0 {
		t.Fatal("no branch stall attributed for random branches")
	}
	if st2.MemStallCycles != 0 {
		t.Fatal("memory stall attributed with ideal D-cache")
	}

	// Fetch stalls: cold I-cache attributed.
	g3 := mustGen(t, brSpec(), 3)
	c3 := newBig(t, flatMem{fetchLat: 10}, false, Ideal{Branch: true, DCache: true})
	c3.AttachThread(g3)
	st3 := run(c3, 0, 20000)
	if st3.FetchStallCycles <= 0 {
		t.Fatal("no fetch stall attributed")
	}

	// Stall CPI accessors.
	if st.MemStallCPI() <= 0 || st2.BranchStallCPI() <= 0 || st3.FetchStallCPI() <= 0 {
		t.Fatal("stall CPI accessors returned zero")
	}
	var zero ThreadStats
	if zero.MemStallCPI() != 0 || zero.BranchStallCPI() != 0 || zero.FetchStallCPI() != 0 {
		t.Fatal("zero stats should report zero stall CPI")
	}
}

func TestBTBMissPenalty(t *testing.T) {
	// A taken branch alternating between two targets defeats the BTB and
	// pays a fetch bubble even with perfect direction prediction; the same
	// stream with a stable target does not.
	stable := []isa.Uop{
		{Class: isa.Branch, Taken: true, PC: 0x100},
		{Class: isa.IntAlu, PC: 0x200},
		{Class: isa.IntAlu, PC: 0x204},
		{Class: isa.IntAlu, PC: 0x208},
	}
	alternating := []isa.Uop{
		{Class: isa.Branch, Taken: true, PC: 0x100},
		{Class: isa.IntAlu, PC: 0x200},
		{Class: isa.Branch, Taken: true, PC: 0x100},
		{Class: isa.IntAlu, PC: 0x300}, // different target for the same PC
	}
	run := func(uops []isa.Uop) float64 {
		// Bimodal learns "taken" quickly; the direction is never mispredicted
		// after warmup, isolating the BTB effect.
		c := newBig(t, flatMem{}, false, Ideal{ICache: true, DCache: true})
		c.AttachThread(script(uops...))
		st := ThreadStats{}
		for i := 0; i < 20000; i++ {
			c.StepThread(0)
		}
		st = c.ThreadStats(0)
		return st.CPI()
	}
	if a, s := run(alternating), run(stable); a <= s {
		t.Fatalf("alternating targets (%.3f) not slower than stable (%.3f)", a, s)
	}
}
