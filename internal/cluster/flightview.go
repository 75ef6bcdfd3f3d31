package cluster

import (
	"cmp"
	"context"
	"encoding/json"
	"path/filepath"
	"slices"
	"strings"

	"smtflex/internal/journal"
	"smtflex/internal/obs"
)

// Flight records are a view of the coordinator's stitched sweep traces, not
// a second log. The cluster.sweep span names the sweep; its cluster.cell
// children carry each cell's identity, winning worker, retries and error;
// their cluster.dispatch, cluster.hedge and cluster.fallback children carry
// each attempt. With tracing off there are no spans and so no records.

// quarantineMsg opens every integrityError message, which is how the view
// tells a quarantined dispatch from another failure.
const quarantineMsg = "cluster: quarantined response"

// FlightEvent is one timestamped lifecycle transition of one cell. Kind is,
// in rough lifecycle order, queued, dispatched, hedged, failed, quarantined,
// fallback or completed.
type FlightEvent struct {
	AtUnixNs int64  `json:"at_unix_ns"`
	Kind     string `json:"kind"`
	Worker   string `json:"worker,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// FlightCell is one dispatched cell's record: identity, outcome, the ns
// split, and its event log.
type FlightCell struct {
	Key      string `json:"key"`
	N        int    `json:"n"`
	Mix      string `json:"mix"`
	Worker   string `json:"worker,omitempty"` // worker whose response completed the cell ("" for a local fallback)
	Attempts int    `json:"attempts"`         // dispatches sent, audits included
	Hedges   int    `json:"hedges,omitempty"`
	Retries  int    `json:"retries,omitempty"`
	// Quarantines counts integrity-failed responses this cell absorbed.
	Quarantines int  `json:"quarantines,omitempty"`
	Done        bool `json:"done"`
	// QueueNs is the sweep's start → the cell's first sent dispatch; WireNs
	// is the winning dispatch's span minus the worker-reported ComputeNs
	// (clamped at zero); WallNs is the sweep's start → the cell's end.
	QueueNs   int64         `json:"queue_ns"`
	WireNs    int64         `json:"wire_ns"`
	ComputeNs int64         `json:"compute_ns"`
	WallNs    int64         `json:"wall_ns"`
	Events    []FlightEvent `json:"events"`
}

// FlightMeta is one sweep's summary, a row of the /debug/flight listing.
type FlightMeta struct {
	Sweep       string `json:"sweep"` // content address of the sweep (memo.KeyHash of study.SweepKey)
	Design      string `json:"design"`
	Kind        string `json:"kind"`
	StartUnixNs int64  `json:"start_unix_ns"`
	EndUnixNs   int64  `json:"end_unix_ns,omitempty"`
	Total       int    `json:"total"`     // cells in the sweep
	Prefilled   int    `json:"prefilled"` // served from the fleet store without dispatch
	Completed   int    `json:"completed"` // dispatched cells that finished
	Active      bool   `json:"active"`
	Err         string `json:"err,omitempty"`
	// DroppedSpans counts spans the trace dropped at its cap; a record
	// reporting any may miss cells or attempts.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// FlightRecord is one sweep's flight record.
type FlightRecord struct {
	FlightMeta
	Cells []*FlightCell `json:"cells"`
}

// FlightRecords renders the record of every sweep that ended in t, in start
// order. It reads nothing but t, so a trace fetched back from
// /debug/traces/{id} renders the same records.
func FlightRecords(t obs.TraceJSON) []*FlightRecord {
	var out []*FlightRecord
	for _, s := range t.Spans {
		if s.Name == "cluster.sweep" {
			out = append(out, flightRecord(t, s))
		}
	}
	return out
}

// flightRecord renders the sweep whose cluster.sweep span is sweep, cells
// sorted by (n, mix, key).
func flightRecord(t obs.TraceJSON, sweep obs.SpanJSON) *FlightRecord {
	base := t.Start.UnixNano()
	start := base + sweep.StartNs
	rec := &FlightRecord{FlightMeta: FlightMeta{
		Sweep: attrStr(sweep, "sweep_id"), Design: attrStr(sweep, "design"), Kind: attrStr(sweep, "kind"),
		StartUnixNs: start, EndUnixNs: start + sweep.DurNs,
		Total: int(attrInt(sweep, "cells")), Prefilled: int(attrInt(sweep, "store_hits")),
		Err: attrStr(sweep, "error"), DroppedSpans: t.DroppedSpans,
	}, Cells: []*FlightCell{}}
	kids := make(map[string][]obs.SpanJSON, len(t.Spans))
	for _, s := range t.Spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for _, s := range kids[sweep.ID] {
		if s.Name == "cluster.cell" {
			c := flightCell(base, start, s, kids[s.ID])
			if c.Done {
				rec.Completed++
			}
			rec.Cells = append(rec.Cells, c)
		}
	}
	slices.SortFunc(rec.Cells, func(a, b *FlightCell) int {
		return cmp.Or(cmp.Compare(a.N, b.N), cmp.Compare(a.Mix, b.Mix), cmp.Compare(a.Key, b.Key))
	})
	return rec
}

// flightCell renders one cluster.cell span from its child spans; base is
// the trace's start and queued the sweep's, in Unix nanoseconds. The
// winning dispatch is the one to the cell's worker that did not fail: every
// other attempt of the cell went to a different worker.
func flightCell(base, queued int64, s obs.SpanJSON, kids []obs.SpanJSON) *FlightCell {
	end := base + s.StartNs + s.DurNs
	c := &FlightCell{
		Key: attrStr(s, "key"), N: int(attrInt(s, "n")), Mix: attrStr(s, "mix"),
		Worker: attrStr(s, "worker"), Retries: int(attrInt(s, "retries")),
		Done: attrStr(s, "error") == "", WallNs: end - queued,
		Events: []FlightEvent{{AtUnixNs: queued, Kind: "queued"}},
	}
	event := func(at int64, kind, worker, detail string) {
		c.Events = append(c.Events, FlightEvent{AtUnixNs: at, Kind: kind, Worker: worker, Detail: detail})
	}
	for _, a := range kids {
		at, worker := base+a.StartNs, attrStr(a, "worker")
		switch a.Name {
		case "cluster.hedge":
			c.Hedges++
			event(at, "hedged", worker, "")
		case "cluster.fallback":
			event(at, "fallback", "", "")
		case "cluster.dispatch":
			if _, sent := a.Attrs["attempt"]; sent { // numbered once on the wire
				c.Attempts++
				if c.Attempts == 1 || at-queued < c.QueueNs {
					c.QueueNs = at - queued
				}
				event(at, "dispatched", worker, "")
			}
			switch msg := attrStr(a, "error"); {
			case strings.HasPrefix(msg, quarantineMsg):
				c.Quarantines++
				event(at+a.DurNs, "quarantined", worker, msg)
			case msg != "":
				event(at+a.DurNs, "failed", worker, msg)
			case c.Done && worker == c.Worker:
				c.ComputeNs = attrInt(a, "compute_ns")
				c.WireNs = max(a.DurNs-c.ComputeNs, 0)
			}
		}
	}
	if c.Done {
		event(end, "completed", c.Worker, "")
	}
	slices.SortStableFunc(c.Events, func(a, b FlightEvent) int { return cmp.Compare(a.AtUnixNs, b.AtUnixNs) })
	return c
}

// attrStr and attrInt read a span attribute as set in process (string, int,
// int64) or after a JSON round trip (float64); absent reads as zero.
func attrStr(s obs.SpanJSON, key string) string {
	v, _ := s.Attrs[key].(string)
	return v
}

func attrInt(s obs.SpanJSON, key string) int64 {
	switch v := s.Attrs[key].(type) {
	case int:
		return int64(v)
	case int64:
		return v
	case float64:
		return int64(v)
	}
	return 0
}

// sweepRun is one traced sweep still computing, the in-progress half of the
// flight view: its trace, its open cluster.sweep span as far as it is known,
// and a channel closed once the span has ended and the record is dumped.
type sweepRun struct {
	tr    *obs.Trace
	span  obs.SpanJSON
	ended chan struct{}
}

// startRun stamps attrs on the sweep span and, if the sweep is traced,
// lists it as in progress.
func (c *Coordinator) startRun(ctx context.Context, sp *obs.Span, attrs map[string]any) *sweepRun {
	for k, v := range attrs {
		sp.SetAttr(k, v)
	}
	if sp == nil {
		return nil
	}
	tr := obs.CurrentTrace(ctx)
	run := &sweepRun{tr: tr, ended: make(chan struct{}), span: obs.SpanJSON{
		ID: sp.ID, Name: sp.Name, StartNs: sp.Start.Sub(tr.Start).Nanoseconds(), Attrs: attrs,
	}}
	c.runsMu.Lock()
	c.runs = append(c.runs, run)
	c.runsMu.Unlock()
	return run
}

// endSweep ends the sweep span, stamping a failed sweep's error on it. A
// run leaves the in-progress list before its span ends, so no listing shows
// it twice, and a journaled coordinator then dumps its record beside the
// journal as flight-<sweep prefix>.json through the journal's crash-safe
// writer; a failed dump is logged, never fatal.
func (c *Coordinator) endSweep(sp *obs.Span, run *sweepRun, err error) {
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	if run != nil {
		c.runsMu.Lock()
		c.runs = slices.DeleteFunc(c.runs, func(r *sweepRun) bool { return r == run })
		c.runsMu.Unlock()
		defer close(run.ended)
	}
	sp.End()
	if run == nil || c.opts.Journal == nil {
		return
	}
	snap := run.tr.Snapshot()
	span := run.span // stands only if the trace's span cap dropped the ended span
	if i := slices.IndexFunc(snap.Spans, func(s obs.SpanJSON) bool { return s.ID == span.ID }); i >= 0 {
		span = snap.Spans[i]
	}
	rec := flightRecord(snap, span)
	b, derr := json.MarshalIndent(rec, "", "  ")
	if derr == nil {
		name := "flight-" + rec.Sweep[:min(len(rec.Sweep), 16)] + ".json"
		derr = journal.WriteAtomic(filepath.Join(c.opts.Journal.Dir(), name), b)
	}
	if derr != nil {
		c.log.Warn("flight record dump failed", "err", derr)
	}
}

// Flights returns the coordinator's flight records: sweeps in progress
// (rendered from their in-flight traces, with the cells finished so far),
// then every sweep in traces — the server's trace ring — each group newest
// first. Snapshot traces before the call, so a sweep ending in between is
// missed rather than listed twice.
func (c *Coordinator) Flights(traces []obs.TraceJSON) []*FlightRecord {
	var active, done []*FlightRecord
	c.runsMu.Lock()
	runs := slices.Clone(c.runs)
	c.runsMu.Unlock()
	for _, run := range runs {
		rec := flightRecord(run.tr.Snapshot(), run.span)
		rec.Active, rec.EndUnixNs = true, 0
		active = append(active, rec)
	}
	for _, t := range traces {
		done = append(done, FlightRecords(t)...)
	}
	newestFirst := func(a, b *FlightRecord) int { return cmp.Compare(b.StartUnixNs, a.StartUnixNs) }
	slices.SortStableFunc(active, newestFirst)
	slices.SortStableFunc(done, newestFirst)
	return append(active, done...)
}

// FindFlight returns the first record in recs whose sweep ID starts with
// sweep, given at least 8 characters that name one sweep only.
func FindFlight(recs []*FlightRecord, sweep string) (*FlightRecord, bool) {
	var match *FlightRecord
	for _, rec := range recs {
		if len(sweep) < 8 || !strings.HasPrefix(rec.Sweep, sweep) {
			continue
		}
		if match != nil && match.Sweep != rec.Sweep {
			return nil, false
		}
		match = cmp.Or(match, rec)
	}
	return match, match != nil
}
