// Package faults is the engine's fault-injection registry: a small set of
// named sites inside the experiment engine (profiler measurement, solver
// iteration, memo compute, worker task, HTTP handler) at which tests and the
// daemon's -faults dev flag can inject failures — returned errors, panics,
// added latency, or NaN corruption of a numeric value.
//
// The registry exists to *prove* the fault-tolerance layer: the chaos test
// suite arms one site at a time and asserts that the daemon keeps serving,
// maps the failure to the right status code, increments its failure metrics,
// and leaks neither goroutines nor poisoned cache entries.
//
// Injection is globally disabled by default and the disabled fast path is a
// single atomic load, so production code can leave Check calls in place at
// full fidelity with no measurable cost.
package faults

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Site names one injection point inside the engine.
type Site string

// The engine's injection sites.
const (
	// SiteProfiler fires on every profile cache miss, before the profile
	// is measured or read from its benchmark's measurement
	// (profiler.Source.ProfileCtx).
	SiteProfiler Site = "profiler"
	// SiteSolver fires at every contention-solver iteration; NaN mode
	// corrupts the solver's memory-latency state instead.
	SiteSolver Site = "solver"
	// SiteMemo fires at the start of every memo.Cache compute.
	SiteMemo Site = "memo"
	// SiteWorker fires before every task the study's worker pool hands out.
	SiteWorker Site = "worker"
	// SiteHandler fires at the start of every engine-backed HTTP handler.
	SiteHandler Site = "handler"
	// SiteDispatch fires before every cell dispatch the cluster coordinator
	// makes to a worker; error mode simulates a lost worker, latency mode a
	// slow network path (exercising hedged re-dispatch).
	SiteDispatch Site = "dispatch"
	// SiteWire fires on the coordinator's receive path, corrupting cell
	// response bytes as a faulty network or lying worker would: bitflip,
	// truncate and duplicate modes (via Mangle) prove that the integrity
	// layer quarantines every corrupted response before assembly.
	SiteWire Site = "wire"
)

// Sites lists every known injection site.
func Sites() []Site {
	return []Site{SiteProfiler, SiteSolver, SiteMemo, SiteWorker, SiteHandler, SiteDispatch, SiteWire}
}

// Mode selects what an armed site does.
type Mode string

const (
	// ModeError makes Check return ErrInjected.
	ModeError Mode = "error"
	// ModePanic makes Check panic, exercising the recover boundaries.
	ModePanic Mode = "panic"
	// ModeLatency makes Check sleep for the injection's Latency, then pass.
	ModeLatency Mode = "latency"
	// ModeNaN makes Corrupt return NaN; Check passes.
	ModeNaN Mode = "nan"
	// ModeBitflip makes Mangle flip one bit mid-payload; Check passes.
	ModeBitflip Mode = "bitflip"
	// ModeTruncate makes Mangle drop the second half of the payload; Check
	// passes.
	ModeTruncate Mode = "truncate"
	// ModeDuplicate makes Mangle append a second copy of the payload; Check
	// passes.
	ModeDuplicate Mode = "duplicate"
)

// mangleMode reports whether m is one of the byte-corruption modes consumed
// by Mangle rather than Check.
func mangleMode(m Mode) bool {
	return m == ModeBitflip || m == ModeTruncate || m == ModeDuplicate
}

// ErrInjected is the sentinel wrapped by every error Check returns.
var ErrInjected = errors.New("faults: injected failure")

// Injection arms one site.
type Injection struct {
	// Mode is what happens when the site fires.
	Mode Mode
	// Latency is the added delay for ModeLatency.
	Latency time.Duration
	// Count limits how many times the site fires before disarming itself;
	// zero means unlimited.
	Count int64
}

// armed is one active injection plus its trigger accounting.
type armed struct {
	inj       Injection
	remaining int64 // <0 = unlimited
	triggered int64
}

var (
	// active is the disabled-path gate: true only while any site is armed.
	active atomic.Bool

	mu        sync.Mutex
	sites     map[Site]*armed
	triggered map[Site]int64
)

// Enable arms site with the injection, replacing any previous arming.
func Enable(site Site, inj Injection) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[Site]*armed)
	}
	rem := int64(-1)
	if inj.Count > 0 {
		rem = inj.Count
	}
	sites[site] = &armed{inj: inj, remaining: rem}
	active.Store(true)
}

// Disable disarms site. Trigger counts are retained until Reset.
func Disable(site Site) {
	mu.Lock()
	defer mu.Unlock()
	delete(sites, site)
	active.Store(len(sites) > 0)
}

// Reset disarms every site and clears trigger counts.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites = nil
	triggered = nil
	active.Store(false)
}

// Triggered reports how many times site has fired since the last Reset.
func Triggered(site Site) int64 {
	mu.Lock()
	defer mu.Unlock()
	return triggered[site]
}

// take consumes one firing of site if it is armed, returning the injection.
func take(site Site) (Injection, bool) {
	mu.Lock()
	defer mu.Unlock()
	a := sites[site]
	if a == nil {
		return Injection{}, false
	}
	if a.remaining == 0 {
		delete(sites, site)
		active.Store(len(sites) > 0)
		return Injection{}, false
	}
	if a.remaining > 0 {
		a.remaining--
		if a.remaining == 0 {
			delete(sites, site)
			active.Store(len(sites) > 0)
		}
	}
	if triggered == nil {
		triggered = make(map[Site]int64)
	}
	triggered[site]++
	return a.inj, true
}

// Check fires site if armed: ModeError returns an error wrapping
// ErrInjected, ModePanic panics, and ModeLatency sleeps and returns nil.
// A ModeNaN arming is left for Corrupt (the value path), and the byte
// corruption modes are left for Mangle; neither consumes a firing here.
// Disabled sites cost one atomic load.
func Check(site Site) error {
	if !active.Load() {
		return nil
	}
	mu.Lock()
	a := sites[site]
	skip := a == nil || a.inj.Mode == ModeNaN || mangleMode(a.inj.Mode)
	mu.Unlock()
	if skip {
		return nil
	}
	inj, ok := take(site)
	if !ok {
		return nil
	}
	switch inj.Mode {
	case ModePanic:
		panic(fmt.Sprintf("faults: injected panic at site %q", site)) // panicgate:allow deliberate injection
	case ModeLatency:
		time.Sleep(inj.Latency)
		return nil
	case ModeNaN:
		return nil
	default:
		return fmt.Errorf("%w at site %q", ErrInjected, site)
	}
}

// Corrupt returns NaN in place of v when site is armed in ModeNaN; any other
// arming (or none) leaves v untouched and does not consume a firing.
func Corrupt(site Site, v float64) float64 {
	if !active.Load() {
		return v
	}
	mu.Lock()
	a := sites[site]
	isNaN := a != nil && a.inj.Mode == ModeNaN && a.remaining != 0
	mu.Unlock()
	if !isNaN {
		return v
	}
	if _, ok := take(site); !ok {
		return v
	}
	return math.NaN()
}

// Mangle corrupts b when site is armed in a byte-corruption mode, modeling
// a wire-level fault: ModeBitflip flips one bit in the middle of the
// payload (which may still parse — only a content digest catches it),
// ModeTruncate drops the second half (torn read), and ModeDuplicate appends
// a second copy (duplicated frame). Any other arming (or none) returns b
// untouched and does not consume a firing. The input slice is never
// modified; corruption happens on a copy.
func Mangle(site Site, b []byte) []byte {
	if !active.Load() {
		return b
	}
	mu.Lock()
	a := sites[site]
	mode := Mode("")
	if a != nil && mangleMode(a.inj.Mode) && a.remaining != 0 {
		mode = a.inj.Mode
	}
	mu.Unlock()
	if mode == "" || len(b) == 0 {
		return b
	}
	if _, ok := take(site); !ok {
		return b
	}
	switch mode {
	case ModeBitflip:
		out := append([]byte(nil), b...)
		out[len(out)/2] ^= 0x01
		return out
	case ModeTruncate:
		return append([]byte(nil), b[:len(b)/2]...)
	default: // ModeDuplicate
		out := append([]byte(nil), b...)
		return append(out, b...)
	}
}

// ParseSpec arms sites from a comma-separated spec like
// "solver=error,profiler=latency:50ms,handler=panic:3" — each entry is
// site=mode, optionally followed by :duration (latency) or :count (other
// modes). It is the parser behind the daemon's -faults dev flag.
func ParseSpec(spec string) error {
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	known := make(map[Site]bool)
	for _, s := range Sites() {
		known[s] = true
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, rest, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("faults: bad spec entry %q (want site=mode)", part)
		}
		if !known[Site(site)] {
			return fmt.Errorf("faults: unknown site %q (known: %v)", site, Sites())
		}
		modeStr, arg, hasArg := strings.Cut(rest, ":")
		inj := Injection{Mode: Mode(modeStr)}
		switch inj.Mode {
		case ModeError, ModePanic, ModeNaN, ModeBitflip, ModeTruncate, ModeDuplicate:
			if hasArg {
				n, err := parseCount(arg)
				if err != nil {
					return fmt.Errorf("faults: entry %q: %v", part, err)
				}
				inj.Count = n
			}
		case ModeLatency:
			if !hasArg {
				return fmt.Errorf("faults: entry %q: latency needs a duration (e.g. latency:50ms)", part)
			}
			d, err := time.ParseDuration(arg)
			if err != nil {
				return fmt.Errorf("faults: entry %q: %v", part, err)
			}
			inj.Latency = d
		default:
			return fmt.Errorf("faults: entry %q: unknown mode %q (want error, panic, latency, nan, bitflip, truncate or duplicate)", part, modeStr)
		}
		Enable(Site(site), inj)
	}
	return nil
}

func parseCount(s string) (int64, error) {
	var n int64
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n <= 0 {
		return 0, fmt.Errorf("bad count %q", s)
	}
	return n, nil
}
