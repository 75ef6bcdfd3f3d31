package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/journal"
	"smtflex/internal/study"
	"smtflex/internal/workload"
)

// campaignOpts is the smallest campaign that runs real figures.
var campaignOpts = []Option{WithUopCount(4000), WithMixesPerCount(1)}

// awkwardTable builds a table with float values that stress JSON round-trip
// exactness: non-terminating binary fractions, huge, tiny and negative.
func awkwardTable(title string) *study.Table {
	t := study.NewTable(title, []string{"r0", "r1"}, []string{"c0", "c1", "c2"})
	vals := [][]float64{
		{1.0 / 3.0, 0.1, 1e300},
		{-2.5e-17, math.Pi, 0.30000000000000004},
	}
	for r := range vals {
		for c := range vals[r] {
			t.Set(r, c, vals[r][c])
		}
	}
	t.Precision = 5
	return t
}

func openCampaign(t *testing.T, sim *Simulator, dir string) *Campaign {
	t.Helper()
	c, err := sim.OpenCampaign(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// render is what the CLIs print for a table, in both formats.
func render(t *study.Table) string { return t.String() + t.CSV() }

func TestCampaignRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()
	c := openCampaign(t, NewSimulator(campaignOpts...), dir)
	if c.Resumed != 0 || c.Reloaded != 0 {
		t.Fatalf("fresh journal resumed %d figure(s), reloaded %d profile(s)", c.Resumed, c.Reloaded)
	}
	orig := awkwardTable("Figure X")
	if err := c.put("figx", orig); err != nil {
		t.Fatal(err)
	}

	c2 := openCampaign(t, NewSimulator(campaignOpts...), dir)
	if c2.Resumed != 1 {
		t.Fatalf("resumed %d figure(s), want 1", c2.Resumed)
	}
	got, ok := c2.Table("figx")
	if !ok {
		t.Fatal("table lost across reopen")
	}
	if render(got) != render(orig) {
		t.Fatalf("render differs after resume:\n%q\nvs\n%q", render(got), render(orig))
	}
}

func TestCampaignMissingTableNotReported(t *testing.T) {
	dir := t.TempDir()
	c := openCampaign(t, NewSimulator(campaignOpts...), dir)
	if _, ok := c.Table("nope"); ok {
		t.Fatal("fresh campaign reported a table")
	}
	if err := c.put("figx", awkwardTable("Figure X")); err != nil {
		t.Fatal(err)
	}
	if _, ok := openCampaign(t, NewSimulator(campaignOpts...), dir).Table("nope"); ok {
		t.Fatal("a table never put was reported after reopen")
	}
}

// TestCampaignNoTempResidue: every record a campaign writes is an atomic
// journal Put, so the journal holds exactly its records and no temp files.
func TestCampaignNoTempResidue(t *testing.T) {
	dir := t.TempDir()
	c := openCampaign(t, NewSimulator(campaignOpts...), dir)
	for _, id := range []string{"a", "b"} {
		if err := c.put(id, awkwardTable(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SaveProfiles(); err != nil {
		t.Fatal(err)
	}
	var names []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			names = append(names, filepath.ToSlash(rel))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cells/a.json", "cells/b.json", "cells/profiles.json", "meta.json"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("journal holds %v, want %v", names, want)
	}
}

// TestCampaignCorruptRecordRecomputed: a record corrupted at rest is dropped
// on reopen, and its figure is computed and journaled again.
func TestCampaignCorruptRecordRecomputed(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	want, err := openCampaign(t, NewSimulator(campaignOpts...), dir).Figure(ctx, "table1")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cells", "table1.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(b), `"Precision":`, `"Precision":1`, 1)
	if tampered == string(b) {
		t.Fatal("test setup: precision not found in record")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}

	c := openCampaign(t, NewSimulator(campaignOpts...), dir)
	if _, ok := c.Table("table1"); ok || c.Resumed != 0 {
		t.Fatalf("tampered record resumed (%d figure(s))", c.Resumed)
	}
	if _, err := c.Figure(ctx, "table1"); err != nil {
		t.Fatal(err)
	}
	got, ok := openCampaign(t, NewSimulator(campaignOpts...), dir).Table("table1")
	if !ok || render(got) != render(want) {
		t.Fatal("recomputed figure was not journaled again")
	}

	// A record whose digest holds but whose table does not decode was not
	// written by this layout: opening refuses it and names the record.
	j, _, err := journal.Open(dir, NewSimulator(campaignOpts...).Study().Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put("fig1", []byte(`{"Title":5}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimulator(campaignOpts...).OpenCampaign(dir); err == nil || !strings.Contains(err.Error(), "record fig1") {
		t.Fatalf("undecodable record: err = %v, want an error naming fig1", err)
	}
}

// TestCampaignResumesInterruptedRun is the kill -9 scenario on real
// figures: a campaign dies after fig3a, and a second simulator on the same
// journal serves fig3a byte-identically, reloads every profile fig3a
// measured, and computes fig5 from them without measuring any.
func TestCampaignResumesInterruptedRun(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	first := NewSimulator(campaignOpts...)
	fig3a, err := openCampaign(t, first, dir).Figure(ctx, "fig3a")
	if err != nil {
		t.Fatal(err)
	}
	// The campaign dies here. fig5's uninterrupted table comes from the
	// same simulator, outside the journal.
	fig5, err := first.Figure(ctx, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	measured := first.Source().CacheCounters()[0].Entries
	if measured == 0 {
		t.Fatal("test setup: fig3a measured no profile")
	}

	second := NewSimulator(campaignOpts...)
	c := openCampaign(t, second, dir)
	if c.Resumed != 1 || c.Reloaded != measured {
		t.Fatalf("resumed %d figure(s) and reloaded %d profile(s), want 1 and %d", c.Resumed, c.Reloaded, measured)
	}
	got, ok := c.Table("fig3a")
	if !ok || render(got) != render(fig3a) {
		t.Fatal("resumed fig3a differs from the run that computed it")
	}
	if _, ok := c.Table("fig5"); ok {
		t.Fatal("unfinished fig5 reported as complete")
	}
	got5, err := c.Figure(ctx, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	if render(got5) != render(fig5) {
		t.Fatal("fig5 computed after the resume differs from the uninterrupted run")
	}
	if m := second.Source().CacheCounters()[0].Misses; m != 0 {
		t.Fatalf("resumed campaign measured %d profile(s)", m)
	}
}

// TestCampaignFingerprintMismatchResumesNothing: a journal written at other
// µops, mixes or seed yields no table and loads no profile — neither the
// tables nor the profiles of another fidelity may leak into this run.
func TestCampaignFingerprintMismatchResumesNothing(t *testing.T) {
	base := NewSimulator(campaignOpts...)
	spec, err := workload.ByName("tonto")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Source().Profile(spec, config.Big); err != nil {
		t.Fatal(err)
	}
	variants := map[string][]Option{
		"uops":  {WithUopCount(5000), WithMixesPerCount(1)},
		"mixes": {WithUopCount(4000), WithMixesPerCount(2)},
		"seed":  {WithUopCount(4000), WithMixesPerCount(1), WithSeed(7)},
	}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := openCampaign(t, base, dir)
			if err := c.SaveProfiles(); err != nil {
				t.Fatal(err)
			}
			if err := c.put("figx", awkwardTable("t")); err != nil {
				t.Fatal(err)
			}

			other := NewSimulator(opts...)
			c2 := openCampaign(t, other, dir)
			if _, ok := c2.Table("figx"); ok || c2.Resumed != 0 {
				t.Fatalf("table resumed under a different fingerprint (%d figure(s))", c2.Resumed)
			}
			if n := other.Source().CacheCounters()[0].Entries; c2.Reloaded != 0 || n != 0 {
				t.Fatalf("profiles loaded under a different fingerprint (reloaded %d, cached %d)", c2.Reloaded, n)
			}
		})
	}
}

// TestCampaignWithoutJournal: an empty directory journals nothing, and
// figures compute as on the bare simulator.
func TestCampaignWithoutJournal(t *testing.T) {
	c := openCampaign(t, sharedSim(), "")
	if _, ok := c.Table("table1"); ok {
		t.Fatal("campaign without a journal reported a table")
	}
	tab, err := c.Figure(context.Background(), "table1")
	if err != nil || !strings.Contains(tab.String(), tab.Title) {
		t.Fatalf("table1: %v", err)
	}
	if err := c.SaveProfiles(); err != nil {
		t.Fatal(err)
	}
}
