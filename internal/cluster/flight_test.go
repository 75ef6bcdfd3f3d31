package cluster

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"smtflex/internal/faults"
	"smtflex/internal/obs"
	"smtflex/internal/study"
)

// waitSweepsEnded blocks until every sweep c lists as in progress has ended
// and had its record dumped.
func waitSweepsEnded(c *Coordinator) {
	c.runsMu.Lock()
	runs := slices.Clone(c.runs)
	c.runsMu.Unlock()
	for _, run := range runs {
		<-run.ended
	}
}

// tracedSweep runs one fleet sweep under a fresh trace, the way the daemon
// runs a /v1/sweep request, and returns the collector holding the trace.
func tracedSweep(t *testing.T, c *Coordinator) *obs.Collector {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
	col := obs.NewCollector(4)
	ctx, root := obs.StartTrace(context.Background(), col, "/v1/sweep")
	_, err := c.SweepDesign(ctx, testDesign(), study.Heterogeneous)
	root.End()
	if err != nil {
		t.Fatalf("traced fleet sweep: %v", err)
	}
	return col
}

// checkFlightAgainstCounters renders the one sweep traced into col and holds
// its flight record to the coordinator's counters for that sweep, then
// checks the dump beside the journal in dir is the same record.
func checkFlightAgainstCounters(t *testing.T, c *Coordinator, col *obs.Collector, dir string) *FlightRecord {
	t.Helper()
	recs := c.Flights(col.Snapshots())
	if len(recs) != 1 {
		t.Fatalf("%d flight records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Active || rec.Err != "" || rec.DroppedSpans != 0 || rec.Total != study.MaxThreads*2 {
		t.Fatalf("flight meta after a clean sweep: %+v", rec.FlightMeta)
	}
	if len(rec.Cells) != rec.Total-rec.Prefilled || rec.Completed != len(rec.Cells) {
		t.Fatalf("record has %d cells (%d completed), want %d dispatched, all done",
			len(rec.Cells), rec.Completed, rec.Total-rec.Prefilled)
	}

	var attempts, hedges, retries, quarantines, local int64
	for _, cl := range rec.Cells {
		if !cl.Done {
			t.Errorf("cell %s not done: %+v", cl.Key, cl)
		}
		attempts += int64(cl.Attempts)
		hedges += int64(cl.Hedges)
		retries += int64(cl.Retries)
		quarantines += int64(cl.Quarantines)
		if cl.Worker == "" {
			local++
		}
		if cl.QueueNs < 0 || cl.WireNs < 0 || cl.ComputeNs < 0 || cl.QueueNs+cl.WireNs+cl.ComputeNs > cl.WallNs {
			t.Errorf("cell %s split: queue=%d wire=%d compute=%d wall=%d", cl.Key, cl.QueueNs, cl.WireNs, cl.ComputeNs, cl.WallNs)
		}
		if cl.Worker != "" && cl.ComputeNs == 0 {
			t.Errorf("cell %s completed by %s carries no worker compute time", cl.Key, cl.Worker)
		}
		if n := len(cl.Events); n < 2 || cl.Events[0].Kind != "queued" || cl.Events[n-1].Kind != "completed" {
			t.Errorf("cell %s events %+v, want queued ... completed", cl.Key, cl.Events)
		}
	}
	st := c.State()
	for _, sum := range []struct {
		name       string
		got, wantN int64
	}{
		{"attempts vs dispatched", attempts, st.Dispatched},
		{"hedges", hedges, st.Hedges},
		{"retries", retries, st.Retries},
		{"quarantines vs integrity failures", quarantines, st.IntegrityFailures},
		{"cells with no worker vs fallbacks", local, st.Fallbacks},
	} {
		if sum.got != sum.wantN {
			t.Errorf("%s: record sums %d, coordinator counts %d", sum.name, sum.got, sum.wantN)
		}
	}

	want, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "flight-"+rec.Sweep[:16]+".json"))
	if err != nil {
		t.Fatalf("flight dump: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("flight dump differs from the record rendered from the trace:\n%s\nwant:\n%s", got, want)
	}
	return rec
}

// TestFlightRecorderTracksSweep drives a journaled two-worker sweep under a
// trace and checks the flight record rendered from it against the
// coordinator's counters, its lookup by full ID and by prefix, and the dump
// beside the journal.
func TestFlightRecorderTracksSweep(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Journal = openTestJournal(t, dir)
	w1, w2 := newWorkerServer(t, nil), newWorkerServer(t, nil)
	c := newTestCoordinator(t, []string{w1.URL, w2.URL}, opts)
	col := tracedSweep(t, c)
	rec := checkFlightAgainstCounters(t, c, col, dir)
	for _, cl := range rec.Cells {
		if cl.Worker != w1.URL && cl.Worker != w2.URL {
			t.Errorf("cell %s completed by %q, want one of the two workers", cl.Key, cl.Worker)
		}
	}

	recs := c.Flights(col.Snapshots())
	for _, id := range []string{rec.Sweep, rec.Sweep[:12], rec.Sweep[:8]} {
		if got, ok := FindFlight(recs, id); !ok || got.Sweep != rec.Sweep {
			t.Errorf("lookup %q failed", id)
		}
	}
	for _, id := range []string{rec.Sweep[:7], "deadbeef0000"} {
		if _, ok := FindFlight(recs, id); ok {
			t.Errorf("lookup %q succeeded", id)
		}
	}
}

// TestFlightRecordWireCorruption is the quarantine variant: responses torn
// on the wire show in the record as quarantines and retries that match the
// coordinator's counters.
func TestFlightRecordWireCorruption(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	dir := t.TempDir()
	opts := testOptions()
	opts.Journal = openTestJournal(t, dir)
	c := newTestCoordinator(t, []string{newWorkerServer(t, nil).URL, newWorkerServer(t, nil).URL}, opts)
	faults.Enable(faults.SiteWire, faults.Injection{Mode: faults.ModeTruncate, Count: 2})
	rec := checkFlightAgainstCounters(t, c, tracedSweep(t, c), dir)
	st := c.State()
	if st.IntegrityFailures == 0 || st.Retries == 0 {
		t.Fatalf("integrity failures %d, retries %d: want both nonzero", st.IntegrityFailures, st.Retries)
	}
	quarantined := 0
	for _, cl := range rec.Cells {
		for _, ev := range cl.Events {
			if ev.Kind == "quarantined" && ev.Worker != "" && strings.HasPrefix(ev.Detail, quarantineMsg) {
				quarantined++
			}
		}
	}
	if int64(quarantined) != st.IntegrityFailures {
		t.Errorf("%d quarantine events, want %d", quarantined, st.IntegrityFailures)
	}
}

// TestFlightRecorderFailedSweep: mid-sweep the view lists the sweep as
// active with the cells finished so far; once the cancelled sweep has ended,
// its record carries the error.
func TestFlightRecorderFailedSweep(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	c := newTestCoordinator(t, []string{newWorkerServer(t, nil).URL}, testOptions())
	col := obs.NewCollector(4)
	ctx, root := obs.StartTrace(context.Background(), col, "/v1/sweep")
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var once sync.Once
	var mid []*FlightRecord
	ctx = study.WithProgress(ctx, func(done, total int) {
		if done >= 6 {
			once.Do(func() {
				mid = c.Flights(nil)
				cancel()
			})
		}
	})
	if _, err := c.SweepDesign(ctx, testDesign(), study.Heterogeneous); err == nil {
		t.Fatal("cancelled sweep succeeded")
	}
	root.End()
	if len(mid) != 1 || !mid[0].Active || mid[0].EndUnixNs != 0 || len(mid[0].Cells) < 6 || mid[0].Completed != len(mid[0].Cells) {
		t.Fatalf("mid-sweep flight view: %+v", mid)
	}
	waitSweepsEnded(c)
	recs := c.Flights(col.Snapshots())
	if len(recs) != 1 || recs[0].Active || !strings.Contains(recs[0].Err, context.Canceled.Error()) || recs[0].Sweep != mid[0].Sweep {
		t.Fatalf("cancelled sweep's record: %+v", recs)
	}
	if recs[0].Completed >= recs[0].Total {
		t.Errorf("cancelled sweep completed %d of %d cells", recs[0].Completed, recs[0].Total)
	}
}

// TestFlightRecordsFromTraceJSON renders a hand-built trace as it reads
// after a JSON round trip (numbers as float64): the winning dispatch sets
// the wire/compute split, a quarantined and a breaker-denied dispatch become
// events without counting as sent attempts twice, a fallback cell has no
// worker, and the trace's dropped-span count is reported.
func TestFlightRecordsFromTraceJSON(t *testing.T) {
	start := time.Unix(1000, 0)
	tr := obs.TraceJSON{Start: start, DroppedSpans: 5, Spans: []obs.SpanJSON{
		{ID: "s1", Parent: "s0", Name: "cluster.sweep", StartNs: 100, DurNs: 10000, Attrs: map[string]any{
			"sweep_id": "abcdef0123456789", "design": "4B", "kind": "heterogeneous", "cells": 3.0, "store_hits": 1.0}},
		{ID: "s2", Parent: "s1", Name: "cluster.cell", StartNs: 200, DurNs: 5000, Attrs: map[string]any{
			"key": "k1", "n": 2.0, "mix": "m1", "worker": "w2", "retries": 1.0}},
		{ID: "s3", Parent: "s2", Name: "cluster.dispatch", StartNs: 300, DurNs: 1000, Attrs: map[string]any{
			"worker": "w1", "attempt": 1.0, "error": quarantineMsg + " from w1: digest mismatch"}},
		{ID: "s4", Parent: "s2", Name: "cluster.dispatch", StartNs: 1400, DurNs: 10, Attrs: map[string]any{
			"worker": "w3", "error": "cluster: worker w3 breaker open"}},
		{ID: "s5", Parent: "s2", Name: "cluster.dispatch", StartNs: 1500, DurNs: 3000, Attrs: map[string]any{
			"worker": "w2", "attempt": 2.0, "compute_ns": 2500.0}},
		{ID: "s6", Parent: "s1", Name: "cluster.cell", StartNs: 250, DurNs: 900, Attrs: map[string]any{
			"key": "k0", "n": 1.0, "mix": "m0", "retries": 0.0}},
		{ID: "s7", Parent: "s6", Name: "cluster.fallback", StartNs: 300, DurNs: 800},
	}}
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var round obs.TraceJSON
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatal(err)
	}
	recs := FlightRecords(round)
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	rec := recs[0]
	base := start.UnixNano()
	if rec.Sweep != "abcdef0123456789" || rec.Total != 3 || rec.Prefilled != 1 || rec.Completed != 2 ||
		rec.DroppedSpans != 5 || rec.StartUnixNs != base+100 || rec.EndUnixNs != base+10100 || len(rec.Cells) != 2 {
		t.Fatalf("record meta: %+v", rec.FlightMeta)
	}
	local, remote := rec.Cells[0], rec.Cells[1] // sorted by n
	if local.Key != "k0" || !local.Done || local.Worker != "" || local.Attempts != 0 || local.WallNs != 1050 {
		t.Errorf("fallback cell: %+v", local)
	}
	if remote.Attempts != 2 || remote.Quarantines != 1 || remote.Retries != 1 || remote.QueueNs != 200 ||
		remote.ComputeNs != 2500 || remote.WireNs != 500 || remote.WallNs != 5100 {
		t.Errorf("dispatched cell: %+v", remote)
	}
	var kinds []string
	for _, ev := range remote.Events {
		kinds = append(kinds, ev.Kind)
	}
	if got := strings.Join(kinds, ","); got != "queued,dispatched,quarantined,failed,dispatched,completed" {
		t.Errorf("dispatched cell's events: %s", got)
	}
}
