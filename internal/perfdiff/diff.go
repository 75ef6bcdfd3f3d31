package perfdiff

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"smtflex/internal/machstats"
	"smtflex/internal/obs"
)

// Thresholds configures the noise floors of a Diff. A delta only *exceeds*
// when it crosses both its relative gate and its absolute floor — the
// absolute floor is what keeps microsecond-scale jitter in a near-idle phase
// from showing up as a 400% "regression".
type Thresholds struct {
	// PhasePct is the allowed relative increase (percent) in a phase's mean
	// self time per trace.
	PhasePct float64
	// PhaseMinNs exempts phases whose mean self time stays under this floor:
	// their durations are timer noise, not attribution.
	PhaseMinNs float64
	// CPIPct is the allowed relative increase in a CPI-stack component's
	// mean CPI per engine.
	CPIPct float64
	// CPIMin is the absolute CPI-delta floor below which a component shift
	// is noise.
	CPIMin float64
	// QuantilePct is the allowed relative increase in a histogram quantile.
	QuantilePct float64
	// QuantileMin is the absolute quantile-delta floor (in the histogram's
	// own unit: iterations, seconds).
	QuantileMin float64
	// Quantiles lists the probed quantiles. Empty means p50/p95/p99.
	Quantiles []float64
}

// DefaultThresholds is the gate tuned for same-machine before/after captures:
// generous relative gates (traced runs share a noisy host) anchored by
// absolute floors that a real hot-path regression clears easily.
func DefaultThresholds() Thresholds {
	return Thresholds{
		PhasePct:    75,
		PhaseMinNs:  1e6, // 1ms mean self time
		CPIPct:      50,
		CPIMin:      0.05,
		QuantilePct: 100,
		QuantileMin: 1e-3,
		Quantiles:   []float64{0.5, 0.95, 0.99},
	}
}

// Delta is one attributed difference between the snapshots.
type Delta struct {
	// Kind is "phase", "fleet-phase", "cpi" or "quantile".
	Kind string `json:"kind"`
	// Group locates the delta: trace group (phase), engine (cpi) or
	// histogram name (quantile).
	Group string `json:"group"`
	// Metric names what moved: a time-stack category, a CPI component or a
	// quantile label ("p95").
	Metric string `json:"metric"`
	// Baseline and Current are the metric's values.
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Unit annotates the values ("ns/trace", "cpi", "iterations", "s", ...).
	Unit string `json:"unit,omitempty"`
	// Exceeds marks deltas past their threshold — the regressions.
	Exceeds bool `json:"exceeds"`
	// Note carries context ("missing from current", "new in current").
	Note string `json:"note,omitempty"`
}

// Rel is the relative change (0.5 = +50%). Deltas with a non-positive
// baseline rank as maximally severe when they exceed.
func (d Delta) Rel() float64 {
	if d.Baseline <= 0 {
		if d.Current > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return (d.Current - d.Baseline) / d.Baseline
}

// Report is the result of diffing two snapshots: every delta, ranked most
// severe first, with the exceeding ones counted out for exit-code decisions.
type Report struct {
	SchemaVersion int   `json:"schema_version"`
	BaselineBuild Build `json:"baseline_build"`
	CurrentBuild  Build `json:"current_build"`
	// Deltas is ranked: exceeding deltas first, then by |relative| descending.
	Deltas []Delta `json:"deltas"`
	// Exceeded counts the deltas past threshold (exit 2 when > 0).
	Exceeded int `json:"exceeded"`
}

// Diff attributes the difference between two snapshots. Both must carry the
// current schema version. Metrics present only in current are reported as
// informational deltas (Note "new in current"), never as regressions — a new
// phase has no baseline to regress from.
func Diff(base, cur *Snapshot, th Thresholds) (*Report, error) {
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := cur.Validate(); err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	if len(th.Quantiles) == 0 {
		th.Quantiles = []float64{0.5, 0.95, 0.99}
	}
	rep := &Report{
		SchemaVersion: SchemaVersion,
		BaselineBuild: base.Build,
		CurrentBuild:  cur.Build,
	}
	rep.Deltas = append(rep.Deltas, diffPhases("phase", base.TimeStacks, cur.TimeStacks, th)...)
	rep.Deltas = append(rep.Deltas, diffPhases("fleet-phase", base.FleetStacks, cur.FleetStacks, th)...)
	rep.Deltas = append(rep.Deltas, diffCPI(base.MachStats, cur.MachStats, th)...)
	rep.Deltas = append(rep.Deltas, diffQuantiles(base.Histograms, cur.Histograms, th)...)

	sort.SliceStable(rep.Deltas, func(i, j int) bool {
		a, b := rep.Deltas[i], rep.Deltas[j]
		if a.Exceeds != b.Exceeds {
			return a.Exceeds
		}
		ra, rb := rankRel(a), rankRel(b)
		if ra != rb {
			return ra > rb
		}
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.Metric < b.Metric
	})
	for _, d := range rep.Deltas {
		if d.Exceeds {
			rep.Exceeded++
		}
	}
	return rep, nil
}

// rankRel is Rel made total-orderable: +Inf (no baseline) ranks above any
// finite increase, and informational "new" rows rank by magnitude like the
// rest so a big new phase still surfaces near the top of its tier.
func rankRel(d Delta) float64 {
	r := d.Rel()
	if math.IsInf(r, 1) {
		return math.MaxFloat64
	}
	return math.Abs(r)
}

// diffPhases compares per-phase mean self time per trace. Means, not raw
// sums: a live daemon's two snapshots cover different trace counts, and only
// the per-trace rate is comparable across them.
func diffPhases(kind string, base, cur []TimeStack, th Thresholds) []Delta {
	curBy := make(map[string]TimeStack, len(cur))
	for _, ts := range cur {
		curBy[ts.Name] = ts
	}
	var out []Delta
	for _, b := range base {
		c, ok := curBy[b.Name]
		if !ok || b.Traces == 0 || c.Traces == 0 {
			continue
		}
		cats := unionKeys(b.ByNs, c.ByNs)
		for _, cat := range cats {
			bm := float64(b.ByNs[cat]) / float64(b.Traces)
			cm := float64(c.ByNs[cat]) / float64(c.Traces)
			if bm == 0 && cm == 0 {
				continue
			}
			d := Delta{
				Kind: kind, Group: b.Name, Metric: cat,
				Baseline: bm, Current: cm, Unit: "ns/trace",
			}
			if cm >= th.PhaseMinNs && cm > bm*(1+th.PhasePct/100) {
				d.Exceeds = true
			}
			out = append(out, d)
		}
	}
	for _, c := range cur {
		if _, ok := firstStack(base, c.Name); !ok && c.Traces > 0 {
			out = append(out, Delta{
				Kind: kind, Group: c.Name, Metric: "(all)",
				Current: float64(totalNs(c)) / float64(c.Traces),
				Unit:    "ns/trace", Note: "new in current",
			})
		}
	}
	return out
}

// TimeStack aliases obs.TimeStack for the diff helpers.
type TimeStack = obs.TimeStack

// diffCPI compares mean CPI per (engine, component) across the captured
// stack records.
func diffCPI(base, cur *machstats.Snapshot, th Thresholds) []Delta {
	if base == nil || cur == nil {
		return nil
	}
	bm := meanCPI(base.Stacks)
	cm := meanCPI(cur.Stacks)
	var keys []string
	seen := map[string]bool{}
	for k := range bm {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range cm {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []Delta
	for _, k := range keys {
		b, bok := bm[k]
		c, cok := cm[k]
		engine, comp, _ := strings.Cut(k, "\x00")
		d := Delta{Kind: "cpi", Group: engine, Metric: comp, Baseline: b, Current: c, Unit: "cpi"}
		switch {
		case !bok:
			d.Note = "new in current"
		case !cok:
			d.Note = "missing from current"
		default:
			if c-b >= th.CPIMin && c > b*(1+th.CPIPct/100) {
				d.Exceeds = true
			}
		}
		out = append(out, d)
	}
	return out
}

// meanCPI folds stack records into mean CPI keyed by engine\x00component.
func meanCPI(stacks []machstats.StackRecord) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, rec := range stacks {
		for _, comp := range rec.Components {
			k := rec.Engine + "\x00" + comp.Name
			sums[k] += comp.CPI
			counts[k]++
		}
	}
	out := make(map[string]float64, len(sums))
	for k, s := range sums {
		out[k] = s / float64(counts[k])
	}
	return out
}

// diffQuantiles compares histogram quantiles by name.
func diffQuantiles(base, cur []HistogramState, th Thresholds) []Delta {
	curBy := make(map[string]HistogramState, len(cur))
	for _, h := range cur {
		curBy[h.Name] = h
	}
	var out []Delta
	for _, b := range base {
		c, ok := curBy[b.Name]
		if !ok || b.Count == 0 || c.Count == 0 {
			continue
		}
		bs, cs := b.Snapshot(), c.Snapshot()
		for _, p := range th.Quantiles {
			bq, cq := bs.Quantile(p), cs.Quantile(p)
			if bq == 0 && cq == 0 {
				continue
			}
			d := Delta{
				Kind: "quantile", Group: b.Name,
				Metric:   fmt.Sprintf("p%g", p*100),
				Baseline: bq, Current: cq,
			}
			if cq-bq >= th.QuantileMin && cq > bq*(1+th.QuantilePct/100) {
				d.Exceeds = true
			}
			out = append(out, d)
		}
	}
	return out
}

// RenderText formats the report as the human-facing attribution table,
// regressions first.
func (r *Report) RenderText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "perfdiff: baseline %s -> current %s\n", describeBuild(r.BaselineBuild), describeBuild(r.CurrentBuild))
	if r.Exceeded > 0 {
		fmt.Fprintf(&b, "REGRESSED: %d delta(s) over threshold\n", r.Exceeded)
	} else {
		b.WriteString("clean: no deltas over threshold\n")
	}
	if len(r.Deltas) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s %-28s %-12s %14s %14s %9s  %s\n",
		"kind", "group", "metric", "baseline", "current", "delta", "flag")
	for _, d := range r.Deltas {
		flag := ""
		if d.Exceeds {
			flag = "OVER"
		}
		if d.Note != "" {
			if flag != "" {
				flag += " "
			}
			flag += "(" + d.Note + ")"
		}
		fmt.Fprintf(&b, "%-12s %-28s %-12s %14.6g %14.6g %9s  %s\n",
			d.Kind, d.Group, d.Metric, d.Baseline, d.Current, formatRel(d), flag)
	}
	return b.String()
}

// formatRel renders the signed relative delta.
func formatRel(d Delta) string {
	r := d.Rel()
	if math.IsInf(r, 1) {
		return "+inf%"
	}
	return fmt.Sprintf("%+.1f%%", 100*r)
}

// describeBuild renders a build identity compactly.
func describeBuild(b Build) string {
	if b.Revision == "" || b.Revision == "unknown" {
		return b.GoVersion
	}
	return b.Revision
}

// unionKeys returns the sorted union of two maps' keys.
func unionKeys(a, b map[string]int64) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var keys []string
	for k := range a {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// firstStack finds a stack by name.
func firstStack(stacks []TimeStack, name string) (TimeStack, bool) {
	for _, s := range stacks {
		if s.Name == name {
			return s, true
		}
	}
	return TimeStack{}, false
}

// totalNs sums a stack's attributed time.
func totalNs(s TimeStack) int64 {
	var t int64
	for _, v := range s.ByNs {
		t += v
	}
	return t
}
