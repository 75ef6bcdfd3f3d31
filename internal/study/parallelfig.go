package study

import (
	"context"

	"fmt"

	"smtflex/internal/config"
	"smtflex/internal/metrics"
	"smtflex/internal/parallel"
)

// parallelThreadCounts are the software thread counts the paper sweeps.
var parallelThreadCounts = []int{4, 8, 12, 16, 20, 24}

// heteroParallelDesigns are the designs shown in Figures 11/12: the three
// homogeneous designs plus the single-big-core heterogeneous designs (pinned
// scheduling cannot exploit multiple big cores).
func heteroParallelDesigns(smt bool) ([]config.Design, error) {
	out := []config.Design{}
	for _, name := range []string{"4B", "8m", "20s", "1B6m", "1B15s"} {
		d, err := config.DesignByName(name, smt)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// evaluateParallel is parallel.Evaluate memoized per (app, design, SMT,
// bandwidth, threads). Figures 1, 11, 12, 16 and 17b share the per-app
// baselines and repeat each other's runs, and a run reads nothing else: it
// solves under the default model with this study's profiles.
func (s *Study) evaluateParallel(app parallel.App, d config.Design, threads int) (parallel.Result, error) {
	key := fmt.Sprintf("%+v|%s|smt=%t|bw=%g|n=%d", app, d.Name, d.SMTEnabled, d.MemBandwidthGBps, threads)
	if r, ok := s.parallelRuns.Load(key); ok {
		return r, nil
	}
	return s.parallelRuns.GetCtx(context.Background(), key, func(context.Context) (parallel.Result, error) {
		s.parallelComputes.Add(1)
		return parallel.Evaluate(app, d, threads, s.Src)
	})
}

// parallelBaseline is the per-app baseline: four threads on 4B without SMT.
func (s *Study) parallelBaseline(app parallel.App, bandwidthGBps float64) (parallel.Result, error) {
	d, err := config.DesignByName("4B", false)
	if err != nil {
		return parallel.Result{}, err
	}
	d = d.WithBandwidth(bandwidthGBps)
	return s.evaluateParallel(app, d, 4)
}

// bestSpeedup evaluates app on design d at the allowed thread counts and
// returns the maximum ROI and whole-program speedups versus the baseline.
// Without SMT the thread count equals the core count (the paper's setup);
// with SMT the sweep goes up to 24 threads.
func (s *Study) bestSpeedup(app parallel.App, d config.Design) (roi, whole float64, err error) {
	base, err := s.parallelBaseline(app, d.MemBandwidthGBps)
	if err != nil {
		return 0, 0, err
	}
	counts := parallelThreadCounts
	if !d.SMTEnabled {
		counts = []int{d.NumCores()}
	}
	for _, n := range counts {
		if d.SMTEnabled && n > d.HardwareThreads() {
			continue
		}
		res, err := s.evaluateParallel(app, d, n)
		if err != nil {
			return 0, 0, err
		}
		if v := base.ROINs / res.ROINs; v > roi {
			roi = v
		}
		if v := base.TotalNs / res.TotalNs; v > whole {
			whole = v
		}
	}
	return roi, whole, nil
}

// parallelSpeedupTable fills rows=designs × cols={ROI,whole} with speedups
// averaged over all applications.
func (s *Study) parallelSpeedupTable(ctx context.Context, title string, designs []config.Design) (*Table, error) {
	names := make([]string, len(designs))
	for i, d := range designs {
		suffix := ""
		if d.SMTEnabled {
			suffix = "_SMT"
		}
		names[i] = d.Name + suffix
	}
	t := NewTable(title, names, []string{"ROI", "whole"})
	apps := parallel.AppNames()
	type speedup struct{ roi, whole float64 }
	vals := make([]speedup, len(designs)*len(apps))
	err := runIndexed(ctx, s.workers(), len(vals), s.poolQueue, func(_ context.Context, i int) error {
		d, name := designs[i/len(apps)], apps[i%len(apps)]
		app, err := parallel.AppByName(name)
		if err != nil {
			return err
		}
		roi, whole, err := s.bestSpeedup(app, d)
		vals[i] = speedup{roi, whole}
		return err
	})
	if err != nil {
		return nil, err
	}
	for r := range designs {
		rois := make([]float64, len(apps))
		wholes := make([]float64, len(apps))
		for a := range apps {
			rois[a] = vals[r*len(apps)+a].roi
			wholes[a] = vals[r*len(apps)+a].whole
		}
		t.Set(r, 0, metrics.Mean(rois))
		t.Set(r, 1, metrics.Mean(wholes))
	}
	return t, nil
}

// Figure11 returns average multi-threaded speedups (versus four threads on
// 4B) for the parallel designs, without and with SMT.
func (s *Study) Figure11(ctx context.Context) (*Table, error) {
	noSMT, err := heteroParallelDesigns(false)
	if err != nil {
		return nil, err
	}
	withSMT, err := heteroParallelDesigns(true)
	if err != nil {
		return nil, err
	}
	designs := append(noSMT, withSMT...)
	return s.parallelSpeedupTable(ctx,
		"Figure 11: average PARSEC-like speedup vs 4-thread 4B (ROI and whole program)", designs)
}

// Figure12 returns per-application best speedups: apps × designs, for the
// given phase ("ROI" or "whole"), with SMT enabled.
func (s *Study) Figure12(ctx context.Context, phase string) (*Table, error) {
	designs, err := heteroParallelDesigns(true)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(designs))
	for i, d := range designs {
		names[i] = d.Name
	}
	t := NewTable(fmt.Sprintf("Figure 12: per-application speedup (%s, SMT designs)", phase),
		parallel.AppNames(), names)
	apps := parallel.AppNames()
	err = runIndexed(ctx, s.workers(), len(designs)*len(apps), s.poolQueue, func(_ context.Context, i int) error {
		c, r := i/len(apps), i%len(apps)
		app, err := parallel.AppByName(apps[r])
		if err != nil {
			return err
		}
		roi, whole, err := s.bestSpeedup(app, designs[c])
		if err != nil {
			return err
		}
		v := roi
		if phase == "whole" {
			v = whole
		}
		t.Set(r, c, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Figure16 returns average ROI speedups for the alternative medium/small
// designs of Section 8.1 — private caches enlarged to the big core's
// (6m_lc, 16s_lc) and frequency raised to 3.33 GHz (6m_hf, 16s_hf) —
// compared against the three baseline homogeneous designs, SMT everywhere.
func (s *Study) Figure16(ctx context.Context) (*Table, error) {
	designs := []config.Design{}
	for _, name := range []string{"4B", "8m", "20s"} {
		d, err := config.DesignByName(name, true)
		if err != nil {
			return nil, err
		}
		designs = append(designs, d)
	}
	designs = append(designs, config.AlternativeDesigns(true)...)
	return s.parallelSpeedupTable(ctx,
		"Figure 16: average ROI speedup with larger-cache and higher-frequency small/medium designs", designs)
}

// Figure17a returns uniform-distribution average STP with 16 GB/s memory
// bandwidth (SMT everywhere): designs × workload kinds.
func (s *Study) Figure17a(ctx context.Context) (*Table, error) {
	designs := config.NineDesigns(true)
	for i := range designs {
		designs[i] = designs[i].WithBandwidth(16)
	}
	return s.uniformAverages(ctx, "Figure 17a: average STP, uniform distribution, SMT, 16 GB/s memory bandwidth", designs)
}

// Figure17b returns average parallel speedups at 16 GB/s bandwidth.
func (s *Study) Figure17b(ctx context.Context) (*Table, error) {
	var designs []config.Design
	for _, smt := range []bool{false, true} {
		ds, err := heteroParallelDesigns(smt)
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			designs = append(designs, d.WithBandwidth(16))
		}
	}
	return s.parallelSpeedupTable(ctx,
		"Figure 17b: average PARSEC-like speedup, 16 GB/s memory bandwidth", designs)
}
