package config

import (
	"errors"
	"reflect"
	"testing"
)

func TestTable1Cores(t *testing.T) {
	big, med, small := BigCore(), MediumCore(), SmallCore()

	// Paper Table 1 anchors.
	if big.Width != 4 || big.ROBSize != 128 || big.SMTContexts != 6 || !big.OutOfOrder {
		t.Errorf("big core mismatch: %+v", big)
	}
	if med.Width != 2 || med.ROBSize != 32 || med.SMTContexts != 3 || !med.OutOfOrder {
		t.Errorf("medium core mismatch: %+v", med)
	}
	if small.Width != 2 || small.SMTContexts != 2 || small.OutOfOrder {
		t.Errorf("small core mismatch: %+v", small)
	}
	if big.L1D.SizeBytes != 32<<10 || big.L2.SizeBytes != 256<<10 {
		t.Errorf("big caches mismatch")
	}
	if med.L1D.SizeBytes != 16<<10 || med.L2.SizeBytes != 128<<10 {
		t.Errorf("medium caches mismatch")
	}
	for _, c := range []Core{big, med, small} {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", c.Type, err)
		}
		if c.FrequencyGHz != BaseFrequencyGHz {
			t.Errorf("%v frequency %g", c.Type, c.FrequencyGHz)
		}
	}
}

func TestCoreOfType(t *testing.T) {
	for _, ct := range []CoreType{Big, Medium, Small} {
		if got := CoreOfType(ct).Type; got != ct {
			t.Errorf("CoreOfType(%v).Type = %v", ct, got)
		}
	}
}

func TestCoreTypeStrings(t *testing.T) {
	if Big.String() != "big" || Medium.String() != "medium" || Small.String() != "small" {
		t.Error("core type names wrong")
	}
	if Big.Letter() != "B" || Medium.Letter() != "m" || Small.Letter() != "s" {
		t.Error("core type letters wrong")
	}
}

func TestNineDesigns(t *testing.T) {
	ds := NineDesigns(true)
	if len(ds) != 9 {
		t.Fatalf("%d designs", len(ds))
	}
	wantOrder := []string{"4B", "8m", "20s", "3B2m", "3B5s", "2B4m", "2B10s", "1B6m", "1B15s"}
	for i, d := range ds {
		if d.Name != wantOrder[i] {
			t.Fatalf("design %d = %s, want %s", i, d.Name, wantOrder[i])
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if !d.SMTEnabled {
			t.Errorf("%s: SMT should be enabled", d.Name)
		}
		// Power equivalence: 1 big = 2 medium = 5 small -> 20 small-units.
		units := 5*d.CountOfType(Big) + 5*d.CountOfType(Medium)/2 + d.CountOfType(Small)
		if units != 20 {
			t.Errorf("%s: %d small-core power units, want 20", d.Name, units)
		}
	}
}

func TestHardwareThreads(t *testing.T) {
	// All nine designs support at least 20 hardware threads with SMT;
	// 4B and 8m support exactly 24.
	for _, d := range NineDesigns(true) {
		ht := d.HardwareThreads()
		if ht < 20 || ht > 40 {
			t.Errorf("%s: %d hardware threads", d.Name, ht)
		}
	}
	fourB, _ := DesignByName("4B", true)
	if fourB.HardwareThreads() != 24 {
		t.Errorf("4B hardware threads %d, want 24", fourB.HardwareThreads())
	}
	if fourB.WithSMT(false).HardwareThreads() != 4 {
		t.Error("4B without SMT should expose 4 threads")
	}
}

func TestDesignByName(t *testing.T) {
	d, err := DesignByName("2B10s", false)
	if err != nil {
		t.Fatal(err)
	}
	if d.CountOfType(Big) != 2 || d.CountOfType(Small) != 10 || d.SMTEnabled {
		t.Fatalf("wrong design %+v", d)
	}
	if _, err := DesignByName("5B", true); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown design: err=%v, want ErrBadConfig", err)
	}
}

// TestDesignByNameReturnsOwnedCopy: the designs come from a table built
// once, so a caller that edits its design's cores must not reach the table
// or the next caller's design.
func TestDesignByNameReturnsOwnedCopy(t *testing.T) {
	for _, smt := range []bool{false, true} {
		for _, want := range NineDesigns(smt) {
			d, err := DesignByName(want.Name, smt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(d, want) {
				t.Fatalf("%s smt=%t: DesignByName differs from NineDesigns", want.Name, smt)
			}
			d.Cores[0].FrequencyGHz = 99
			d.Cores[0].L1D.SizeBytes = 1
			d.Cores = append(d.Cores[:1], d.Cores...)
			again, err := DesignByName(want.Name, smt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, want) {
				t.Fatalf("%s smt=%t: mutating a returned design changed the next lookup: %+v", want.Name, smt, again.Cores[0])
			}
		}
	}
}

func TestDesignOrderingBigFirst(t *testing.T) {
	for _, d := range NineDesigns(true) {
		for i := 1; i < len(d.Cores); i++ {
			if d.Cores[i-1].Type > d.Cores[i].Type {
				t.Fatalf("%s: cores not big-first at %d", d.Name, i)
			}
		}
	}
}

func TestWithSMTIsolatedCopy(t *testing.T) {
	d, _ := DesignByName("4B", true)
	d2 := d.WithSMT(false)
	if d2.SMTEnabled || !d.SMTEnabled {
		t.Fatal("WithSMT wrong")
	}
	d2.Cores[0].Width = 99
	if d.Cores[0].Width == 99 {
		t.Fatal("WithSMT shares the cores slice")
	}
}

func TestWithBandwidth(t *testing.T) {
	d, _ := DesignByName("8m", true)
	d2 := d.WithBandwidth(16)
	if d2.MemBandwidthGBps != 16 || d.MemBandwidthGBps != 8 {
		t.Fatal("WithBandwidth wrong")
	}
}

func TestSummary(t *testing.T) {
	d, _ := DesignByName("3B5s", true)
	if got := d.Summary(); got != "3B+5s, SMT" {
		t.Fatalf("Summary() = %q", got)
	}
	if got := d.WithSMT(false).Summary(); got != "3B+5s" {
		t.Fatalf("Summary() = %q", got)
	}
}

func TestHomogeneousOnlySMT(t *testing.T) {
	for _, d := range HomogeneousOnlySMT() {
		homog := d.Name == "4B" || d.Name == "8m" || d.Name == "20s"
		if d.SMTEnabled != homog {
			t.Errorf("%s: SMT=%t", d.Name, d.SMTEnabled)
		}
	}
}

func TestAlternativeDesigns(t *testing.T) {
	alts := AlternativeDesigns(true)
	if len(alts) != 4 {
		t.Fatalf("%d alternative designs", len(alts))
	}
	byName := map[string]Design{}
	for _, d := range alts {
		byName[d.Name] = d
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	// Larger-cache designs carry the big core's private caches.
	big := BigCore()
	for _, name := range []string{"6m_lc", "16s_lc"} {
		d := byName[name]
		if d.Cores[0].L2.SizeBytes != big.L2.SizeBytes {
			t.Errorf("%s: L2 %d, want %d", name, d.Cores[0].L2.SizeBytes, big.L2.SizeBytes)
		}
	}
	// High-frequency designs run at 3.33 GHz.
	for _, name := range []string{"6m_hf", "16s_hf"} {
		if f := byName[name].Cores[0].FrequencyGHz; f != 3.33 {
			t.Errorf("%s: frequency %g", name, f)
		}
	}
	// Power-equivalent core counts per Section 8.1: 6 medium or 16 small.
	if byName["6m_lc"].NumCores() != 6 || byName["16s_lc"].NumCores() != 16 {
		t.Error("alternative core counts wrong")
	}
}

func TestMemConfig(t *testing.T) {
	mc := MemConfig(8)
	if err := mc.Validate(); err != nil {
		t.Fatal(err)
	}
	if mc.Banks != 8 {
		t.Errorf("banks %d", mc.Banks)
	}
	// 45 ns at 2.66 GHz ≈ 119 cycles.
	if mc.AccessTimeCycles < 115 || mc.AccessTimeCycles > 125 {
		t.Errorf("access time %d cycles", mc.AccessTimeCycles)
	}
	// 8 GB/s at 2.66 GHz ≈ 3 bytes/cycle.
	if mc.BusBandwidthBytesPerCycle < 2.9 || mc.BusBandwidthBytesPerCycle > 3.1 {
		t.Errorf("bus bandwidth %g B/cycle", mc.BusBandwidthBytesPerCycle)
	}
	// Doubling bandwidth doubles bytes per cycle.
	if r := MemConfig(16).BusBandwidthBytesPerCycle / mc.BusBandwidthBytesPerCycle; r < 1.99 || r > 2.01 {
		t.Errorf("bandwidth scaling %g", r)
	}
}

func TestLLCConfig(t *testing.T) {
	llc := LLCConfig()
	if llc.SizeBytes != 8<<20 || llc.Assoc != 16 {
		t.Errorf("LLC %+v", llc)
	}
	if err := llc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDesignValidateRejects(t *testing.T) {
	var d Design
	if err := d.Validate(); err == nil {
		t.Error("empty design accepted")
	}
	d = NewDesign("x", 1, 1, 0, true)
	d.Cores[0], d.Cores[1] = d.Cores[1], d.Cores[0] // violate big-first
	if err := d.Validate(); err == nil {
		t.Error("unordered design accepted")
	}
	d = NewDesign("y", 1, 0, 0, true)
	d.MemBandwidthGBps = 0
	if err := d.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
}
