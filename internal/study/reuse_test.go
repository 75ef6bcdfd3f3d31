package study

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/contention"
	"smtflex/internal/interval"
)

// sharedWorkTables pins the CSV of every table whose code shares work
// with other figures — abl-smteff reads Figure 8's sweeps, the parallel
// figures share memoized application runs — at the package's shared-study
// fidelity (100k µops, 12 mixes). The hashes were taken from code that
// swept every design for both kinds under every model and ran every
// application run afresh; sharing must not move a bit.
var sharedWorkTables = []struct {
	id, sha string
	table   func(*Study, context.Context) (*Table, error)
}{
	{"abl-smteff", "1941e8644d4947005ad8327ae7cd6929d81bac87b012e1ff2808953c6da989b8", (*Study).AblationSMTEfficiency},
	{"fig11", "f64206c7e80a4c4052def36045c0b10f3cb8f03d0f203e64a3e17c02e3d6953d", (*Study).Figure11},
	{"fig12a", "0e19d2698d0637e39e5639e795acb0a6741e5c7171f364e6ef39f63dd9250e27",
		func(s *Study, ctx context.Context) (*Table, error) { return s.Figure12(ctx, "ROI") }},
	{"fig12b", "5a49e237dfc769f7263d99360bc8f73084f60590509fd657ceb17b8c019dcebf",
		func(s *Study, ctx context.Context) (*Table, error) { return s.Figure12(ctx, "whole") }},
	{"fig16", "2f637467edac65327dea9861870c65e27e0ffc90994c3ac203337b7795572de2", (*Study).Figure16},
	{"fig17b", "a81b270a73330c41fb58c9272f6fd966963e2336454db918005819093f7af434", (*Study).Figure17b},
}

func TestSharedWorkTablesPinned(t *testing.T) {
	s := sharedStudy()
	for _, tc := range sharedWorkTables {
		tab, err := tc.table(s, context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		sum := sha256.Sum256([]byte(tab.CSV()))
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s: table SHA-256 %s, want %s\n%s", tc.id, got, tc.sha, tab.CSV())
		}
	}
}

// TestAblationSMTEfficiencyReusesFigure8 counts the sweeps the ablation
// adds after Figure 8: per efficiency, 4B's two kinds and the six
// heterogeneous designs' heterogeneous kind, 8 sweeps, and the 0.97 row is
// the default model spelled out, so it computes 3 × 8 = 24. Sweeping both
// kinds of every design under keys that spelled the default out computed
// 4 × 14 = 56.
func TestAblationSMTEfficiencyReusesFigure8(t *testing.T) {
	s := newEngineStudy(0)
	ctx := context.Background()
	if _, err := s.Figure8(ctx); err != nil {
		t.Fatal(err)
	}
	before := s.sweeps.Counters().Misses
	if _, err := s.AblationSMTEfficiency(ctx); err != nil {
		t.Fatal(err)
	}
	if after := s.sweeps.Counters().Misses; after-before != 24 {
		t.Errorf("AblationSMTEfficiency after Figure8: %d sweep misses, want 24", after-before)
	}
}

// TestFigure12ReusesFigure11Runs: Figure 12 evaluates the SMT half of
// Figure 11's grid per application, so after Figure 11 it starts no
// application run of its own.
func TestFigure12ReusesFigure11Runs(t *testing.T) {
	s := newEngineStudy(0)
	ctx := context.Background()
	if _, err := s.Figure11(ctx); err != nil {
		t.Fatal(err)
	}
	before := s.parallelComputes.Load()
	for _, phase := range []string{"ROI", "whole"} {
		if _, err := s.Figure12(ctx, phase); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.parallelComputes.Load() - before; n != 0 {
		t.Errorf("Figure12 after Figure11 ran %d new parallel.Evaluate calls, want 0", n)
	}
}

// TestCanonicalModelSharesKeyAndFingerprint: a model that spells out a
// default solves like the default model, so it must share the default's
// sweep key (and through it every cell key) and fingerprint; a model that
// changes the arithmetic must not. The default's own key and fingerprint
// are pinned byte-for-byte: journals and fleets in the field compare them.
func TestCanonicalModelSharesKeyAndFingerprint(t *testing.T) {
	base := New(nil)
	d, err := config.DesignByName("4B", true)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantKey = "4B|smt=true|bw=8|heterogeneous|{EqualLLCShares:false FixedMemLatency:false FlatVisible:false IssueEfficiency:0 MaxIterations:0 Tolerance:0 Damping:0}"
		wantFP  = "uops=0|mixes=12|seed=20140301|model={EqualLLCShares:false FixedMemLatency:false FlatVisible:false IssueEfficiency:0 MaxIterations:0 Tolerance:0 Damping:0}"
	)
	if got := base.SweepKey(d, Heterogeneous); got != wantKey {
		t.Errorf("default sweep key %q, want %q", got, wantKey)
	}
	if got := base.Fingerprint(); got != wantFP {
		t.Errorf("default fingerprint %q, want %q", got, wantFP)
	}
	for _, tc := range []struct {
		m    contention.Model
		same bool
	}{
		{contention.Model{IssueEfficiency: interval.SMTIssueEfficiency}, true},
		{contention.Model{MaxIterations: 60}, true},
		{contention.Model{Damping: 0.5}, true},
		{contention.Model{IssueEfficiency: 0.9}, false},
		{contention.Model{Tolerance: 1e-6}, false},
	} {
		alt := base.withModel(tc.m)
		if same := alt.SweepKey(d, Heterogeneous) == wantKey; same != tc.same {
			t.Errorf("%+v: shares the default sweep key = %t, want %t", tc.m, same, tc.same)
		}
		if same := alt.Fingerprint() == wantFP; same != tc.same {
			t.Errorf("%+v: shares the default fingerprint = %t, want %t", tc.m, same, tc.same)
		}
	}
}
