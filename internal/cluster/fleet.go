package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"smtflex/internal/machstats"
	"smtflex/internal/obs"
)

// Fleet aggregation: the coordinator scrapes each live worker's /metrics,
// /debug/timestack and /debug/machstats over the same HTTP client it
// dispatches with, and merges them into one snapshot — per-worker columns
// plus fleet totals — behind the coordinator's GET /debug/fleet. A worker
// that cannot be scraped degrades to an error row; partial fleets still
// produce a snapshot, never an error.

// fleetScrapeTimeout caps one worker's whole scrape (all three endpoints).
const fleetScrapeTimeout = 5 * time.Second

// FleetWorker is one worker's column in the fleet snapshot.
type FleetWorker struct {
	URL string `json:"url"`
	// Alive mirrors the dispatch-side breaker verdict at scrape time; Err is
	// set when the scrape itself failed (the worker keeps its row either way).
	Alive bool   `json:"alive"`
	Err   string `json:"err,omitempty"`
	// Metrics maps Prometheus series ("name" or `name{labels}`) to their
	// scraped values.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// TimeStacks is the worker's own per-route time-stack report.
	TimeStacks []obs.TimeStack `json:"timestacks,omitempty"`
	// MachCounters flattens the worker's machine-level counters and cycle
	// accumulators ("counter/<name>", "cycles/<name>"). Empty when machstats
	// is disabled on the worker — that is a configuration, not a scrape
	// failure.
	MachCounters map[string]float64 `json:"mach_counters,omitempty"`
}

// FleetSnapshot is the merged view of the whole fleet at one scrape.
type FleetSnapshot struct {
	Workers []FleetWorker `json:"workers"`
	// Scraped counts workers whose scrape fully succeeded; Errors the rest.
	Scraped int `json:"scraped"`
	Errors  int `json:"errors"`
	// Totals sums every numeric Prometheus series across scraped workers.
	// Counters and gauges sum meaningfully; histogram buckets are cumulative
	// counters, so their sums are fleet-wide bucket counts.
	Totals map[string]float64 `json:"totals,omitempty"`
	// TimeStacks merges the workers' per-route stacks: per group name, the
	// component nanoseconds, trace counts and wall time are summed and the
	// percentages recomputed over the fleet-wide totals.
	TimeStacks []obs.TimeStack `json:"timestacks,omitempty"`
	// MachCounters sums the workers' machine-level counters.
	MachCounters map[string]float64 `json:"mach_counters,omitempty"`
}

// FleetSnapshot scrapes every worker concurrently and merges the results.
// It never fails: unreachable workers appear as error rows and the merge
// covers whoever answered.
func (c *Coordinator) FleetSnapshot(ctx context.Context) FleetSnapshot {
	rows := make([]FleetWorker, len(c.workers))
	var wg sync.WaitGroup
	for i, ws := range c.workers {
		wg.Add(1)
		go func(i int, ws *workerState) {
			defer wg.Done()
			rows[i] = c.scrapeWorker(ctx, ws)
		}(i, ws)
	}
	wg.Wait()

	snap := FleetSnapshot{Workers: rows}
	totals := make(map[string]float64)
	mach := make(map[string]float64)
	merged := make(map[string]*obs.TimeStack)
	var groupOrder []string
	for _, row := range rows {
		if row.Err != "" {
			snap.Errors++
			continue
		}
		snap.Scraped++
		for k, v := range row.Metrics {
			totals[k] += v
		}
		for k, v := range row.MachCounters {
			mach[k] += v
		}
		for _, ts := range row.TimeStacks {
			m, ok := merged[ts.Name]
			if !ok {
				m = &obs.TimeStack{Name: ts.Name, ByNs: map[string]int64{}, Percent: map[string]float64{}}
				merged[ts.Name] = m
				groupOrder = append(groupOrder, ts.Name)
			}
			m.Traces += ts.Traces
			m.WallNs += ts.WallNs
			for cat, ns := range ts.ByNs {
				m.ByNs[cat] += ns
			}
		}
	}
	sort.Strings(groupOrder)
	for _, name := range groupOrder {
		m := merged[name]
		var total int64
		for _, ns := range m.ByNs {
			total += ns
		}
		if total > 0 {
			for cat, ns := range m.ByNs {
				m.Percent[cat] = 100 * float64(ns) / float64(total)
			}
		}
		snap.TimeStacks = append(snap.TimeStacks, *m)
	}
	if len(totals) > 0 {
		snap.Totals = totals
	}
	if len(mach) > 0 {
		snap.MachCounters = mach
	}
	return snap
}

// scrapeWorker pulls one worker's three observability surfaces. /metrics
// failing fails the scrape; /debug/timestack and /debug/machstats are
// feature-gated on the worker (tracing/-machstats), so a 404 there is simply
// an absent section.
func (c *Coordinator) scrapeWorker(ctx context.Context, ws *workerState) FleetWorker {
	row := FleetWorker{URL: ws.url, Alive: ws.alive()}
	sctx, cancel := context.WithTimeout(ctx, fleetScrapeTimeout)
	defer cancel()

	body, status, err := c.get(sctx, ws.url+"/metrics")
	if err != nil {
		row.Err = fmt.Sprintf("scrape /metrics: %v", err)
		return row
	}
	if status != http.StatusOK {
		row.Err = fmt.Sprintf("scrape /metrics: status %d", status)
		return row
	}
	row.Metrics = parsePromText(body)

	if body, status, err = c.get(sctx, ws.url+"/debug/timestack"); err == nil && status == http.StatusOK {
		var tr struct {
			Stacks []obs.TimeStack `json:"stacks"`
		}
		if json.Unmarshal(body, &tr) == nil {
			row.TimeStacks = tr.Stacks
		}
	}

	if body, status, err = c.get(sctx, ws.url+"/debug/machstats"); err == nil && status == http.StatusOK {
		var ms machstats.Snapshot
		if json.Unmarshal(body, &ms) == nil {
			mach := make(map[string]float64, len(ms.Counters)+len(ms.Cycles))
			for _, cs := range ms.Counters {
				mach["counter/"+cs.Name] += float64(cs.Value)
			}
			for _, cy := range ms.Cycles {
				mach["cycles/"+cy.Name] += cy.Cycles
			}
			if len(mach) > 0 {
				row.MachCounters = mach
			}
		}
	}
	return row
}

// get issues one bounded GET and returns the body and status.
func (c *Coordinator) get(ctx context.Context, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, 0, err
	}
	return b, resp.StatusCode, nil
}

// parsePromText extracts series → value from a Prometheus text exposition:
// comment lines are skipped, and each sample line splits at the last space.
// Unparsable lines are ignored — this is a best-effort debug merge, not a
// conformant client.
func parsePromText(b []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// RenderText formats the snapshot as the text form of /debug/fleet: one row
// per worker, the headline fleet totals, and the merged time stacks.
func (s FleetSnapshot) RenderText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d workers, %d scraped, %d errors\n\n", len(s.Workers), s.Scraped, s.Errors)
	fmt.Fprintf(&b, "%-32s %-6s %s\n", "worker", "alive", "status")
	for _, w := range s.Workers {
		status := "ok"
		if w.Err != "" {
			status = w.Err
		}
		fmt.Fprintf(&b, "%-32s %-6t %s\n", w.URL, w.Alive, status)
	}
	if len(s.Totals) > 0 {
		b.WriteString("\nfleet totals (summed across scraped workers):\n")
		keys := make([]string, 0, len(s.Totals))
		for k := range s.Totals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-64s %g\n", k, s.Totals[k])
		}
	}
	if len(s.MachCounters) > 0 {
		b.WriteString("\nfleet machine counters:\n")
		keys := make([]string, 0, len(s.MachCounters))
		for k := range s.MachCounters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-64s %g\n", k, s.MachCounters[k])
		}
	}
	if len(s.TimeStacks) > 0 {
		b.WriteString("\nmerged worker time stacks:\n")
		b.WriteString(obs.RenderTimeStacks(s.TimeStacks))
	}
	return b.String()
}
