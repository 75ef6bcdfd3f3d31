package config

import (
	"errors"
	"fmt"
	"strings"
)

// Design is one multi-core design point: an ordered list of cores sharing an
// LLC, a crossbar and a memory system. Ordering matters for scheduling: the
// policies fill cores front to back, and designs list bigger cores first.
type Design struct {
	// Name is the paper's code, e.g. "4B", "3B5s", "2B10s".
	Name string
	// Cores lists the per-core configurations, big cores first.
	Cores []Core
	// SMTEnabled gates multi-threading: when false every core runs at most
	// one thread at a time and excess threads time-share.
	SMTEnabled bool
	// LLC is the shared last-level cache.
	LLC struct {
		SizeBytes, Assoc, LatencyCycles int
	}
	// MemBandwidthGBps is the off-chip bandwidth (8 in the base setup).
	MemBandwidthGBps float64
}

// NewDesign assembles a design from counts of big, medium and small cores.
func NewDesign(name string, nBig, nMedium, nSmall int, smt bool) Design {
	d := Design{Name: name, SMTEnabled: smt, MemBandwidthGBps: 8}
	for i := 0; i < nBig; i++ {
		d.Cores = append(d.Cores, BigCore())
	}
	for i := 0; i < nMedium; i++ {
		d.Cores = append(d.Cores, MediumCore())
	}
	for i := 0; i < nSmall; i++ {
		d.Cores = append(d.Cores, SmallCore())
	}
	llc := LLCConfig()
	d.LLC.SizeBytes = llc.SizeBytes
	d.LLC.Assoc = llc.Assoc
	d.LLC.LatencyCycles = llc.LatencyCycles
	return d
}

// NumCores returns the core count.
func (d Design) NumCores() int { return len(d.Cores) }

// CountOfType returns how many cores of type t the design has.
func (d Design) CountOfType(t CoreType) int {
	n := 0
	for _, c := range d.Cores {
		if c.Type == t {
			n++
		}
	}
	return n
}

// HardwareThreads returns the total thread contexts with SMT, or the core
// count without.
func (d Design) HardwareThreads() int {
	if !d.SMTEnabled {
		return len(d.Cores)
	}
	n := 0
	for _, c := range d.Cores {
		n += c.SMTContexts
	}
	return n
}

// WithSMT returns a copy of the design with SMT enabled or disabled.
func (d Design) WithSMT(enabled bool) Design {
	d2 := d
	d2.SMTEnabled = enabled
	d2.Cores = append([]Core(nil), d.Cores...)
	return d2
}

// WithBandwidth returns a copy with a different off-chip bandwidth.
func (d Design) WithBandwidth(gbps float64) Design {
	d2 := d
	d2.MemBandwidthGBps = gbps
	d2.Cores = append([]Core(nil), d.Cores...)
	return d2
}

// Validate checks every core and the LLC.
func (d Design) Validate() error {
	if err := d.validate(); err != nil {
		if errors.Is(err, ErrBadConfig) {
			return err
		}
		return fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	return nil
}

func (d Design) validate() error {
	if len(d.Cores) == 0 {
		return fmt.Errorf("design %s: no cores", d.Name)
	}
	for i, c := range d.Cores {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("design %s core %d: %w", d.Name, i, err)
		}
		if i > 0 && d.Cores[i-1].Type > c.Type {
			return fmt.Errorf("design %s: cores not ordered big-first at %d", d.Name, i)
		}
	}
	if d.LLC.SizeBytes <= 0 || d.LLC.Assoc <= 0 {
		return fmt.Errorf("design %s: bad LLC", d.Name)
	}
	if d.MemBandwidthGBps <= 0 {
		return fmt.Errorf("design %s: bad bandwidth %g", d.Name, d.MemBandwidthGBps)
	}
	return nil
}

// String returns the design name.
func (d Design) String() string { return d.Name }

// Summary returns a human-readable composition like "2B+10s, SMT".
func (d Design) Summary() string {
	var parts []string
	for t := Big; t < NumCoreTypes; t++ {
		if n := d.CountOfType(t); n > 0 {
			parts = append(parts, fmt.Sprintf("%d%s", n, t.Letter()))
		}
	}
	s := strings.Join(parts, "+")
	if d.SMTEnabled {
		s += ", SMT"
	}
	return s
}

// NineDesigns returns the nine power-equivalent design points of Figure 2,
// in the paper's order: 4B, 8m, 20s, 3B2m, 3B5s, 2B4m, 2B10s, 1B6m, 1B15s.
// The power-equivalence rule is 1 big = 2 medium = 5 small cores.
func NineDesigns(smt bool) []Design {
	return []Design{
		NewDesign("4B", 4, 0, 0, smt),
		NewDesign("8m", 0, 8, 0, smt),
		NewDesign("20s", 0, 0, 20, smt),
		NewDesign("3B2m", 3, 2, 0, smt),
		NewDesign("3B5s", 3, 0, 5, smt),
		NewDesign("2B4m", 2, 4, 0, smt),
		NewDesign("2B10s", 2, 0, 10, smt),
		NewDesign("1B6m", 1, 6, 0, smt),
		NewDesign("1B15s", 1, 0, 15, smt),
	}
}

// designTable holds the nine designs without ([0]) and with ([1]) SMT,
// built once: request handlers and workers resolve a design per call.
var designTable = [2][]Design{NineDesigns(false), NineDesigns(true)}

// DesignByName returns the named design from the nine-design space. The
// result owns its Cores slice, so callers may modify it freely. An unknown
// name wraps ErrBadConfig.
func DesignByName(name string, smt bool) (Design, error) {
	tab := designTable[0]
	if smt {
		tab = designTable[1]
	}
	for _, d := range tab {
		if d.Name == name {
			d.Cores = append([]Core(nil), d.Cores...)
			return d, nil
		}
	}
	return Design{}, fmt.Errorf("%w: unknown design %q", ErrBadConfig, name)
}

// HomogeneousOnlySMT returns the nine designs with SMT enabled only in the
// homogeneous ones (4B, 8m, 20s), matching the Figure 7 setup.
func HomogeneousOnlySMT() []Design {
	ds := NineDesigns(false)
	for i := range ds {
		if ds[i].Name == "4B" || ds[i].Name == "8m" || ds[i].Name == "20s" {
			ds[i].SMTEnabled = true
		}
	}
	return ds
}

// AlternativeDesigns returns the Section 8.1 design points: medium/small
// configurations with private caches enlarged to the big core's (the "_lc"
// designs, power-equivalent to 1B = 1.5m = 4s) and with frequency raised to
// 3.33 GHz (the "_hf" designs, same equivalence).
func AlternativeDesigns(smt bool) []Design {
	largeCacheMedium := MediumCore()
	largeCacheMedium.L1I = BigCore().L1I
	largeCacheMedium.L1D = BigCore().L1D
	largeCacheMedium.L2 = BigCore().L2

	largeCacheSmall := SmallCore()
	largeCacheSmall.L1I = BigCore().L1I
	largeCacheSmall.L1D = BigCore().L1D
	largeCacheSmall.L2 = BigCore().L2

	hfMedium := MediumCore()
	hfMedium.FrequencyGHz = 3.33
	hfSmall := SmallCore()
	hfSmall.FrequencyGHz = 3.33

	mk := func(name string, core Core, n int) Design {
		d := Design{Name: name, SMTEnabled: smt, MemBandwidthGBps: 8}
		for i := 0; i < n; i++ {
			d.Cores = append(d.Cores, core)
		}
		llc := LLCConfig()
		d.LLC.SizeBytes = llc.SizeBytes
		d.LLC.Assoc = llc.Assoc
		d.LLC.LatencyCycles = llc.LatencyCycles
		return d
	}
	return []Design{
		mk("6m_lc", largeCacheMedium, 6),
		mk("16s_lc", largeCacheSmall, 16),
		mk("6m_hf", hfMedium, 6),
		mk("16s_hf", hfSmall, 16),
	}
}
