package study

import (
	"context"

	"fmt"

	"smtflex/internal/config"
	"smtflex/internal/dist"
	"smtflex/internal/metrics"
	"smtflex/internal/parallel"
)

// threadCols returns "1".."24" column headers.
func threadCols() []string {
	cols := make([]string, MaxThreads)
	for i := range cols {
		cols[i] = fmt.Sprintf("%d", i+1)
	}
	return cols
}

// designNames lists the nine designs in the paper's order.
func designNames() []string {
	names := make([]string, 0, 9)
	for _, d := range config.NineDesigns(true) {
		names = append(names, d.Name)
	}
	return names
}

// sweepAll evaluates independent designs on the worker pool and returns
// their sweeps in input order.
func (s *Study) sweepAll(ctx context.Context, designs []config.Design, k Kind) ([]*Sweep, error) {
	sweeps := make([]*Sweep, len(designs))
	err := runIndexed(ctx, s.workers(), len(designs), s.poolQueue, func(ctx context.Context, i int) error {
		sw, err := s.SweepDesign(ctx, designs[i], k)
		sweeps[i] = sw
		return err
	})
	if err != nil {
		return nil, err
	}
	return sweeps, nil
}

// Table1 returns the three core configurations (a machine-readable Table 1).
func Table1() *Table {
	rows := []string{"width", "rob", "smt_contexts", "l1i_kb", "l1d_kb", "l2_kb", "ooo", "freq_ghz"}
	cols := []string{"big", "medium", "small"}
	t := NewTable("Table 1: big, medium and small core configurations", rows, cols)
	for c, ct := range []config.CoreType{config.Big, config.Medium, config.Small} {
		cc := config.CoreOfType(ct)
		ooo := 0.0
		if cc.OutOfOrder {
			ooo = 1
		}
		vals := []float64{
			float64(cc.Width), float64(cc.ROBSize), float64(cc.SMTContexts),
			float64(cc.L1I.SizeBytes) / 1024, float64(cc.L1D.SizeBytes) / 1024,
			float64(cc.L2.SizeBytes) / 1024, ooo, cc.FrequencyGHz,
		}
		for r, v := range vals {
			t.Set(r, c, v)
		}
	}
	t.Precision = 2
	return t
}

// Figure2 returns the composition of the nine power-equivalent designs.
func Figure2() *Table {
	t := NewTable("Figure 2: the nine power-equivalent multi-core designs",
		designNames(), []string{"big", "medium", "small", "hw_threads"})
	for r, d := range config.NineDesigns(true) {
		t.Set(r, 0, float64(d.CountOfType(config.Big)))
		t.Set(r, 1, float64(d.CountOfType(config.Medium)))
		t.Set(r, 2, float64(d.CountOfType(config.Small)))
		t.Set(r, 3, float64(d.HardwareThreads()))
	}
	t.Precision = 0
	return t
}

// Figure1 returns the distribution of active thread counts for each
// multi-threaded application running 20 threads on a twenty-core processor,
// bucketed as in the paper's legend.
func (s *Study) Figure1(ctx context.Context) (*Table, error) {
	buckets := []string{"1", "2", "3", "4", "5", "6-10", "11-15", "16-19", "20"}
	apps := parallel.AppNames()
	t := NewTable("Figure 1: distribution of active thread counts (PARSEC-like, 20 threads on 20 cores)", apps, buckets)
	d, err := config.DesignByName("20s", false)
	if err != nil {
		return nil, err
	}
	resByApp := make([]parallel.Result, len(apps))
	err = runIndexed(ctx, s.workers(), len(apps), s.poolQueue, func(_ context.Context, r int) error {
		app, err := parallel.AppByName(apps[r])
		if err != nil {
			return err
		}
		resByApp[r], err = s.evaluateParallel(app, d, 20)
		return err
	})
	if err != nil {
		return nil, err
	}
	for r := range apps {
		res := resByApp[r]
		for k := 1; k <= 24; k++ {
			frac := res.Active[k-1]
			var b int
			switch {
			case k <= 5:
				b = k - 1
			case k <= 10:
				b = 5
			case k <= 15:
				b = 6
			case k <= 19:
				b = 7
			default:
				b = 8
			}
			t.Cells[r][b] += frac
		}
	}
	return t, nil
}

// Figure3 returns average STP versus thread count for the nine designs with
// SMT enabled, for the given workload kind ((a) homogeneous,
// (b) heterogeneous).
func (s *Study) Figure3(ctx context.Context, k Kind) (*Table, error) {
	t := NewTable(fmt.Sprintf("Figure 3%s: STP vs thread count, SMT, %s workloads", sub(k), k),
		designNames(), threadCols())
	sweeps, err := s.sweepAll(ctx, config.NineDesigns(true), k)
	if err != nil {
		return nil, err
	}
	for r, sw := range sweeps {
		for n := 1; n <= MaxThreads; n++ {
			t.Set(r, n-1, sw.STP[n-1])
		}
	}
	return t, nil
}

func sub(k Kind) string {
	if k == Homogeneous {
		return "a"
	}
	return "b"
}

// Figure4 returns per-benchmark STP versus thread count for the named
// benchmark's homogeneous workload (the paper shows tonto and libquantum).
func (s *Study) Figure4(ctx context.Context, bench string) (*Table, error) {
	t := NewTable(fmt.Sprintf("Figure 4: STP vs thread count, homogeneous %s workload", bench),
		designNames(), threadCols())
	sweeps, err := s.sweepAll(ctx, config.NineDesigns(true), Homogeneous)
	if err != nil {
		return nil, err
	}
	for r, sw := range sweeps {
		mi := -1
		for i, name := range sw.MixNames {
			if name == bench {
				mi = i
				break
			}
		}
		if mi < 0 {
			return nil, fmt.Errorf("study: benchmark %q not in sweep", bench)
		}
		for n := 1; n <= MaxThreads; n++ {
			t.Set(r, n-1, sw.ByMix[mi][n-1])
		}
	}
	return t, nil
}

// Figure5 returns average ANTT versus thread count for the nine SMT designs
// with homogeneous workloads.
func (s *Study) Figure5(ctx context.Context) (*Table, error) {
	t := NewTable("Figure 5: ANTT vs thread count, SMT, homogeneous workloads",
		designNames(), threadCols())
	sweeps, err := s.sweepAll(ctx, config.NineDesigns(true), Homogeneous)
	if err != nil {
		return nil, err
	}
	for r, sw := range sweeps {
		for n := 1; n <= MaxThreads; n++ {
			t.Set(r, n-1, sw.ANTT[n-1])
		}
	}
	return t, nil
}

// uniformAverages fills a designs × {homogeneous,heterogeneous} table of
// uniform-distribution average STP for the given design list.
func (s *Study) uniformAverages(ctx context.Context, title string, designs []config.Design) (*Table, error) {
	names := make([]string, len(designs))
	for i, d := range designs {
		names[i] = d.Name
	}
	t := NewTable(title, names, []string{"homogeneous", "heterogeneous"})
	u := dist.Uniform()
	kinds := []Kind{Homogeneous, Heterogeneous}
	vals := make([]float64, len(designs)*len(kinds))
	err := runIndexed(ctx, s.workers(), len(vals), s.poolQueue, func(ctx context.Context, i int) error {
		d, k := designs[i/len(kinds)], kinds[i%len(kinds)]
		sw, err := s.SweepDesign(ctx, d, k)
		if err != nil {
			return err
		}
		vals[i], err = DistributionSTP(sw, u)
		return err
	})
	if err != nil {
		return nil, err
	}
	for r := range designs {
		for c := range kinds {
			t.Set(r, c, vals[r*len(kinds)+c])
		}
	}
	return t, nil
}

// Figure6 returns uniform-distribution average STP with SMT disabled
// everywhere (threads beyond core count time-share).
func (s *Study) Figure6(ctx context.Context) (*Table, error) {
	return s.uniformAverages(ctx, "Figure 6: average STP, uniform thread-count distribution, no SMT",
		config.NineDesigns(false))
}

// Figure7 returns uniform-distribution average STP with SMT only in the
// homogeneous designs (4B, 8m, 20s).
func (s *Study) Figure7(ctx context.Context) (*Table, error) {
	return s.uniformAverages(ctx, "Figure 7: average STP, uniform distribution, SMT in homogeneous designs only",
		config.HomogeneousOnlySMT())
}

// Figure8 returns uniform-distribution average STP with SMT in all designs.
func (s *Study) Figure8(ctx context.Context) (*Table, error) {
	return s.uniformAverages(ctx, "Figure 8: average STP, uniform distribution, SMT in all designs",
		config.NineDesigns(true))
}

// Figure9 returns per-benchmark uniform-distribution average STP
// (homogeneous workloads, SMT everywhere): benchmarks × designs.
func (s *Study) Figure9(ctx context.Context) (*Table, error) {
	designs := config.NineDesigns(true)
	var t *Table
	u := dist.Uniform()
	sweeps, err := s.sweepAll(ctx, designs, Homogeneous)
	if err != nil {
		return nil, err
	}
	for c, sw := range sweeps {
		if t == nil {
			t = NewTable("Figure 9: per-benchmark average STP, uniform distribution, SMT in all designs",
				sw.MixNames, designNames())
		}
		for r := range sw.MixNames {
			weights := make([]float64, MaxThreads)
			for n := 1; n <= MaxThreads; n++ {
				weights[n-1] = u.Weight(n)
			}
			v, err := metrics.WeightedHarmonicMean(sw.ByMix[r][:], weights)
			if err != nil {
				return nil, err
			}
			t.Set(r, c, v)
		}
	}
	return t, nil
}

// Figure10 returns average STP under the datacenter and mirrored-datacenter
// distributions for heterogeneous workloads, with and without SMT:
// designs × {datacenter/noSMT, datacenter/SMT, mirrored/noSMT, mirrored/SMT}.
func (s *Study) Figure10(ctx context.Context) (*Table, error) {
	t := NewTable("Figure 10b: average STP under datacenter distributions, heterogeneous workloads",
		designNames(), []string{"dc_noSMT", "dc_SMT", "mirror_noSMT", "mirror_SMT"})
	for c, setup := range []struct {
		d   dist.Distribution
		smt bool
	}{
		{dist.Datacenter(), false},
		{dist.Datacenter(), true},
		{dist.MirroredDatacenter(), false},
		{dist.MirroredDatacenter(), true},
	} {
		sweeps, err := s.sweepAll(ctx, config.NineDesigns(setup.smt), Heterogeneous)
		if err != nil {
			return nil, err
		}
		for r, sw := range sweeps {
			v, err := DistributionSTP(sw, setup.d)
			if err != nil {
				return nil, err
			}
			t.Set(r, c, v)
		}
	}
	return t, nil
}

// Figure10a returns the datacenter thread-count distribution itself.
func Figure10a() *Table {
	t := NewTable("Figure 10a: datacenter active-thread-count distribution",
		[]string{"probability"}, threadCols())
	d := dist.Datacenter()
	for n := 1; n <= MaxThreads; n++ {
		t.Set(0, n-1, d.Weight(n))
	}
	return t
}

// Figure13 compares the 4B SMT design against the ideal dynamic multi-core
// (best of the nine designs at every thread count and workload), with and
// without SMT: rows × thread counts.
func (s *Study) Figure13(ctx context.Context, k Kind) (*Table, error) {
	t := NewTable(fmt.Sprintf("Figure 13%s: 4B with SMT vs ideal dynamic multi-core, %s workloads", sub(k), k),
		[]string{"4B_SMT", "dynamic_noSMT", "dynamic_SMT"}, threadCols())

	fourB, err := config.DesignByName("4B", true)
	if err != nil {
		return nil, err
	}
	sw4, err := s.SweepDesign(ctx, fourB, k)
	if err != nil {
		return nil, err
	}
	for n := 1; n <= MaxThreads; n++ {
		t.Set(0, n-1, sw4.STP[n-1])
	}

	for row, smt := range map[int]bool{1: false, 2: true} {
		sweeps, err := s.sweepAll(ctx, config.NineDesigns(smt), k)
		if err != nil {
			return nil, err
		}
		nMixes := len(sweeps[0].ByMix)
		for n := 1; n <= MaxThreads; n++ {
			best := make([]float64, nMixes)
			for mi := 0; mi < nMixes; mi++ {
				for _, sw := range sweeps {
					if v := sw.ByMix[mi][n-1]; v > best[mi] {
						best[mi] = v
					}
				}
			}
			h, err := metrics.HarmonicMean(best)
			if err != nil {
				return nil, err
			}
			t.Set(row, n-1, h)
		}
	}
	return t, nil
}

// Figure14 returns average chip power (gated) versus thread count for the
// nine SMT designs with homogeneous workloads.
func (s *Study) Figure14(ctx context.Context) (*Table, error) {
	t := NewTable("Figure 14: power (W) vs thread count, power gating, SMT, homogeneous workloads",
		designNames(), threadCols())
	t.Precision = 1
	sweeps, err := s.sweepAll(ctx, config.NineDesigns(true), Homogeneous)
	if err != nil {
		return nil, err
	}
	for r, sw := range sweeps {
		for n := 1; n <= MaxThreads; n++ {
			t.Set(r, n-1, sw.Watts[n-1])
		}
	}
	return t, nil
}

// Figure15 returns throughput, power, normalized energy and normalized EDP
// for the nine SMT designs under a uniform distribution with heterogeneous
// workloads. Energy and EDP are normalized to the 4B design.
func (s *Study) Figure15(ctx context.Context) (*Table, error) {
	t := NewTable("Figure 15: throughput vs power and energy, heterogeneous workloads, uniform distribution",
		designNames(), []string{"STP", "watts", "energy_norm", "edp_norm"})
	u := dist.Uniform()
	type pp struct{ stp, w float64 }
	sweeps, err := s.sweepAll(ctx, config.NineDesigns(true), Heterogeneous)
	if err != nil {
		return nil, err
	}
	vals := make([]pp, 0, 9)
	for _, sw := range sweeps {
		stp, err := DistributionSTP(sw, u)
		if err != nil {
			return nil, err
		}
		w, err := DistributionWatts(sw, u)
		if err != nil {
			return nil, err
		}
		vals = append(vals, pp{stp, w})
	}
	ref := vals[0] // 4B is first
	refEnergy := ref.w / ref.stp
	refEDP := ref.w / (ref.stp * ref.stp)
	for r, v := range vals {
		t.Set(r, 0, v.stp)
		t.Set(r, 1, v.w)
		t.Set(r, 2, (v.w/v.stp)/refEnergy)
		t.Set(r, 3, (v.w/(v.stp*v.stp))/refEDP)
	}
	return t, nil
}
