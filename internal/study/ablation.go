package study

import (
	"context"

	"fmt"

	"smtflex/internal/config"
	"smtflex/internal/contention"
	"smtflex/internal/dist"
	"smtflex/internal/sched"
)

// The ablation studies quantify the modelling decisions DESIGN.md calls
// out: SMT issue efficiency, allocation-weighted LLC partitioning, memory
// queueing and window-dependent visible latency. Each ablation re-runs the
// Figure 8 experiment (uniform-distribution average STP with SMT
// everywhere) under an alternative model, sharing this study's profile
// source so only the solver mechanism changes.

// withModel returns a Study that shares this study's profiles and workload
// construction but solves with model m. Solo rates are model-independent
// (they come from contention.Solve on the default model), so the derived
// study shares the solo cache rather than recomputing identical rates; the
// sweep cache is shared too because its keys include the model, and so is
// the evaluation counter, so Evaluations covers the ablations' cells.
func (s *Study) withModel(m contention.Model) *Study {
	alt := New(s.Src)
	alt.MixesPerCount = s.MixesPerCount
	alt.Seed = s.Seed
	alt.Model = m
	alt.Parallelism = s.Parallelism
	alt.solo = s.solo
	alt.sweeps = s.sweeps
	alt.parallelRuns = s.parallelRuns
	alt.evals = s.evals
	alt.solverIters = s.solverIters
	alt.poolQueue = s.poolQueue
	return alt
}

// AblationSMTEfficiency sweeps the SMT issue-efficiency constant and
// reports the uniform-average STP of 4B and of the best heterogeneous
// design at each value: rows = efficiency settings. The best-design column
// reads only heterogeneous workloads, so the six heterogeneous designs are
// swept for that kind alone; the 0.97 row is the default model spelled out
// and reads Figure 8's sweeps (sweep keys render the canonical model).
func (s *Study) AblationSMTEfficiency(ctx context.Context) (*Table, error) {
	effs := []float64{0.80, 0.90, 0.97, 1.00}
	rows := make([]string, len(effs))
	for i, e := range effs {
		rows[i] = fmt.Sprintf("eff=%.2f", e)
	}
	t := NewTable("Ablation: SMT issue efficiency (uniform-average STP)",
		rows, []string{"4B_homog", "4B_heterog", "best_heterog_design"})
	fourB, err := config.DesignByName("4B", true)
	if err != nil {
		return nil, err
	}
	type sweepID struct {
		d config.Design
		k Kind
	}
	ids := []sweepID{{fourB, Homogeneous}, {fourB, Heterogeneous}}
	for _, d := range config.NineDesigns(true) {
		if d.Name != "4B" && d.Name != "8m" && d.Name != "20s" {
			ids = append(ids, sweepID{d, Heterogeneous})
		}
	}
	u := dist.Uniform()
	for r, e := range effs {
		alt := s.withModel(contention.Model{IssueEfficiency: e})
		vals := make([]float64, len(ids))
		err := runIndexed(ctx, alt.workers(), len(ids), alt.poolQueue, func(ctx context.Context, i int) error {
			sw, err := alt.SweepDesign(ctx, ids[i].d, ids[i].k)
			if err != nil {
				return err
			}
			vals[i], err = DistributionSTP(sw, u)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Set(r, 0, vals[0])
		t.Set(r, 1, vals[1])
		best := 0.0
		for _, v := range vals[2:] {
			if v > best {
				best = v
			}
		}
		t.Set(r, 2, best)
	}
	return t, nil
}

// ablationFig8 recomputes Figure 8 under an alternative model.
func (s *Study) ablationFig8(ctx context.Context, title string, m contention.Model) (*Table, error) {
	alt := s.withModel(m)
	return alt.uniformAverages(ctx, title, config.NineDesigns(true))
}

// AblationLLCPolicy compares allocation-weighted LLC partitioning against
// an equal split.
func (s *Study) AblationLLCPolicy(ctx context.Context) (*Table, error) {
	weighted, err := s.Figure8(ctx)
	if err != nil {
		return nil, err
	}
	equal, err := s.ablationFig8(ctx, "equal", contention.Model{EqualLLCShares: true})
	if err != nil {
		return nil, err
	}
	t := NewTable("Ablation: LLC partitioning policy (uniform-average STP)",
		weighted.Rows, []string{"weighted_homog", "weighted_heterog", "equal_homog", "equal_heterog"})
	for r := range t.Rows {
		t.Set(r, 0, weighted.Get(r, 0))
		t.Set(r, 1, weighted.Get(r, 1))
		t.Set(r, 2, equal.Get(r, 0))
		t.Set(r, 3, equal.Get(r, 1))
	}
	return t, nil
}

// AblationQueueing compares the M/D/1 bus/bank queueing model against a
// fixed (uncontended) memory latency; without queueing the bandwidth-bound
// flattening of Figure 4(b) disappears and every design speeds up.
func (s *Study) AblationQueueing(ctx context.Context) (*Table, error) {
	queued, err := s.Figure8(ctx)
	if err != nil {
		return nil, err
	}
	fixed, err := s.ablationFig8(ctx, "fixed", contention.Model{FixedMemLatency: true})
	if err != nil {
		return nil, err
	}
	t := NewTable("Ablation: memory queueing (uniform-average STP)",
		queued.Rows, []string{"queued_homog", "queued_heterog", "fixed_homog", "fixed_heterog"})
	for r := range t.Rows {
		t.Set(r, 0, queued.Get(r, 0))
		t.Set(r, 1, queued.Get(r, 1))
		t.Set(r, 2, fixed.Get(r, 0))
		t.Set(r, 3, fixed.Get(r, 1))
	}
	return t, nil
}

// AblationWindowVisible compares the window-dependent visible-latency
// fraction against a flat fraction: with a flat fraction, deep SMT no
// longer exposes additional memory latency, inflating 4B at high counts.
func (s *Study) AblationWindowVisible(ctx context.Context) (*Table, error) {
	fourB, err := config.DesignByName("4B", true)
	if err != nil {
		return nil, err
	}
	t := NewTable("Ablation: window-dependent visible latency (4B homogeneous STP by thread count)",
		[]string{"window_dependent", "flat"}, threadCols())
	sw, err := s.SweepDesign(ctx, fourB, Homogeneous)
	if err != nil {
		return nil, err
	}
	for n := 1; n <= MaxThreads; n++ {
		t.Set(0, n-1, sw.STP[n-1])
	}
	alt := s.withModel(contention.Model{FlatVisible: true})
	swf, err := alt.SweepDesign(ctx, fourB, Homogeneous)
	if err != nil {
		return nil, err
	}
	for n := 1; n <= MaxThreads; n++ {
		t.Set(1, n-1, swf.STP[n-1])
	}
	return t, nil
}

// AblationScheduler validates the greedy placement heuristic against the
// exhaustive local-search refinement (the paper's offline best-schedule
// analysis): rows = (design, thread count), cols = {greedy, refined,
// improvement %}. Small improvements mean the cheap heuristic used by all
// sweeps is close to the offline optimum.
func (s *Study) AblationScheduler(ctx context.Context) (*Table, error) {
	designs := []string{"4B", "3B5s"}
	counts := []int{8, 16, 24}
	var rows []string
	for _, dn := range designs {
		for _, n := range counts {
			rows = append(rows, fmt.Sprintf("%s_n%d", dn, n))
		}
	}
	t := NewTable("Ablation: greedy vs refined offline scheduling (chip throughput, µops/ns)",
		rows, []string{"greedy", "refined", "gain_pct"})

	r := 0
	for _, dn := range designs {
		d, err := config.DesignByName(dn, true)
		if err != nil {
			return nil, err
		}
		for _, n := range counts {
			mix := s.mixesAt(Heterogeneous, n)[0]
			greedyPl, err := sched.Place(d, mix, s.Src)
			if err != nil {
				return nil, err
			}
			res, err := contention.Solve(greedyPl)
			if err != nil {
				return nil, err
			}
			var greedy float64
			for _, th := range res.Threads {
				greedy += th.UopsPerNs
			}
			_, refined, err := sched.PlaceRefined(d, mix, s.Src, sched.RefineBudget{MaxPasses: 1})
			if err != nil {
				return nil, err
			}
			t.Set(r, 0, greedy)
			t.Set(r, 1, refined)
			t.Set(r, 2, 100*(refined-greedy)/greedy)
			r++
		}
	}
	return t, nil
}
