package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/machstats"
	"smtflex/internal/study"
	"smtflex/internal/workload"
)

// TestSweepMachStatsAttachment checks the ?machstats=1 opt-in on the sweep
// endpoint: absent by default, and a full per-thread-count mean-stack table
// when asked for.
func TestSweepMachStatsAttachment(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"design":"2B4m","kind":"heterogeneous"}`

	code, raw, _ := postJSON(t, ts.URL+"/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("sweep: code %d: %s", code, raw)
	}
	var plain SweepResponse
	if err := json.Unmarshal(raw, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.MachStats != nil {
		t.Fatal("mach_stats attached without ?machstats=1")
	}

	code, raw, _ = postJSON(t, ts.URL+"/v1/sweep?machstats=1", body)
	if code != http.StatusOK {
		t.Fatalf("sweep?machstats=1: code %d: %s", code, raw)
	}
	var resp SweepResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.MachStats == nil {
		t.Fatal("no mach_stats attachment with ?machstats=1")
	}
	if len(resp.MachStats.MeanStacks) != study.MaxThreads {
		t.Fatalf("mean_stacks has %d entries, want %d", len(resp.MachStats.MeanStacks), study.MaxThreads)
	}
	for n, stack := range resp.MachStats.MeanStacks {
		if len(stack) != len(machstats.ComponentNames()) {
			t.Fatalf("n=%d: %d components, want %d", n+1, len(stack), len(machstats.ComponentNames()))
		}
		var total float64
		for _, c := range stack {
			total += c.CPI
		}
		if total <= 0 {
			t.Errorf("n=%d: mean stack sums to %g, want > 0", n+1, total)
		}
	}
}

// TestPlaceMachStatsAttachment checks the per-thread stacks on /v1/place.
func TestPlaceMachStatsAttachment(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"design":"4B","programs":["tonto","hmmer","bzip2"]}`
	code, raw, _ := postJSON(t, ts.URL+"/v1/place?machstats=1", body)
	if code != http.StatusOK {
		t.Fatalf("place?machstats=1: code %d: %s", code, raw)
	}
	var resp PlaceResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.MachStats == nil {
		t.Fatal("no mach_stats attachment with ?machstats=1")
	}
	if len(resp.MachStats.Threads) != 3 {
		t.Fatalf("%d thread stacks, want 3", len(resp.MachStats.Threads))
	}
	for i, th := range resp.MachStats.Threads {
		if th.Program == "" || th.Total <= 0 || len(th.Stack) == 0 {
			t.Errorf("thread %d: incomplete stack detail: %+v", i, th)
		}
		var sum float64
		for _, c := range th.Stack {
			sum += c.CPI
		}
		if diff := sum - th.Total; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("thread %d: components sum to %g, total %g", i, sum, th.Total)
		}
	}
}

// TestDebugMachStats checks the registry dump endpoint: 404 while disarmed,
// JSON snapshot with stacks after an armed evaluation, and the CSV variant.
func TestDebugMachStats(t *testing.T) {
	machstats.Disable()
	_, ts := newTestServer(t, Config{})

	code, raw := getJSON(t, ts.URL+"/debug/machstats")
	if code != http.StatusNotFound {
		t.Fatalf("disarmed /debug/machstats: code %d: %s", code, raw)
	}

	machstats.Reset()
	machstats.Enable()
	t.Cleanup(machstats.Disable)
	t.Cleanup(machstats.Reset)
	if code, raw, _ := postJSON(t, ts.URL+"/v1/place", `{"design":"4B","programs":["tonto","hmmer"]}`); code != http.StatusOK {
		t.Fatalf("place: code %d: %s", code, raw)
	}

	code, raw = getJSON(t, ts.URL+"/debug/machstats")
	if code != http.StatusOK {
		t.Fatalf("armed /debug/machstats: code %d: %s", code, raw)
	}
	var snap machstats.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Stacks) == 0 {
		t.Fatal("no CPI-stack records after an armed evaluation")
	}
	if len(snap.Counters) == 0 {
		t.Fatal("no counters after an armed evaluation")
	}

	code, raw = getJSON(t, ts.URL+"/debug/machstats?format=csv")
	if code != http.StatusOK {
		t.Fatalf("csv: code %d: %s", code, raw)
	}
	if !strings.HasPrefix(string(raw), "engine,design,benchmark,core,thread,component,cpi") {
		t.Fatalf("csv header missing: %q", string(raw[:min(len(raw), 80)]))
	}

	if code, raw = getJSON(t, ts.URL+"/debug/machstats?format=nope"); code != http.StatusBadRequest {
		t.Fatalf("bad format: code %d: %s", code, raw)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	event string
	data  string
}

// readSSE parses an SSE stream into events.
func readSSE(t *testing.T, r *bufio.Scanner) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	for r.Scan() {
		line := r.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	return events
}

// TestSweepStream checks the SSE live-progress endpoint: progress events
// with monotone done counts, a terminal result event whose payload matches
// the POST endpoint's response, and error handling on bad input.
func TestSweepStream(t *testing.T) {
	// A cold sweep must emit progress, so it runs on a fresh engine: the
	// package-wide sharedSim keeps every sweep, and would answer this one
	// from its cache on a second -count iteration. The fresh engine loads the
	// 1B6m profiles (big and medium) from sharedSim, which measures them
	// once per test process.
	for _, sp := range workload.Benchmarks() {
		for _, ct := range []config.CoreType{config.Big, config.Medium} {
			if _, err := sharedSim().Source().Profile(sp, ct); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, ts := newTestServer(t, Config{Sim: coordinatorSim(t)})

	resp, err := http.Get(ts.URL + "/v1/sweep?stream=1&design=1B6m&kind=heterogeneous&machstats=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	events := readSSE(t, bufio.NewScanner(resp.Body))
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	last := events[len(events)-1]
	if last.event != "result" {
		t.Fatalf("final event %q, want result; data: %s", last.event, last.data)
	}
	var sw SweepResponse
	if err := json.Unmarshal([]byte(last.data), &sw); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if sw.Design != "1B6m" || len(sw.STP) != study.MaxThreads {
		t.Fatalf("result payload incomplete: %+v", sw)
	}
	if sw.MachStats == nil {
		t.Fatal("stream result missing mach_stats despite machstats=1")
	}
	prevDone := -1
	sawProgress := false
	for _, ev := range events[:len(events)-1] {
		if ev.event != "progress" {
			t.Fatalf("unexpected event %q before result", ev.event)
		}
		sawProgress = true
		var p struct{ Done, Total int }
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("progress payload: %v", err)
		}
		if p.Done <= prevDone {
			t.Fatalf("progress not monotone: %d after %d", p.Done, prevDone)
		}
		prevDone = p.Done
		if p.Total != study.MaxThreads*2 { // testSimOpts uses MixesPerCount=2
			t.Fatalf("progress total %d, want %d", p.Total, study.MaxThreads*2)
		}
	}
	if !sawProgress {
		t.Fatal("cold sweep emitted no progress events")
	}

	// Parameter validation: the query is parsed as strictly as a POST body.
	for _, url := range []string{
		"/v1/sweep?design=1B6m",          // missing stream=1
		"/v1/sweep?stream=1",             // missing design
		"/v1/sweep?stream=1&design=nope", // unknown design
		"/v1/sweep?stream=1&design=1B6m&kind=bogus",
		"/v1/sweep?stream=1&design=1B6m&kind=heterogeneous&smt=no",
		"/v1/sweep?stream=1&design=1B6m&kind=heterogeneous&bandwidth_gbps=8x",
		"/v1/sweep?stream=1&design=1B6m&kind=heterogeneous&bandwidth_gbps=-1",
	} {
		if code, raw := getJSON(t, ts.URL+url); code != http.StatusBadRequest {
			t.Errorf("GET %s: code %d, want 400: %s", url, code, raw)
		}
	}
	if code, raw, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"1B6m","kind":"heterogeneous","bandwidth_gbps":-1}`); code != http.StatusBadRequest {
		t.Errorf("POST with negative bandwidth: code %d, want 400: %s", code, raw)
	}
}

// TestStreamWriter pins the stream's one writer: hooks called from several
// goroutines at once give strictly increasing done counts that end at the
// highest count, then the terminal event, and a hook called after the
// terminal event, as a compute kept alive by coalesced waiters may call it,
// writes nothing.
func TestStreamWriter(t *testing.T) {
	rec := httptest.NewRecorder()
	rp := &reply{w: rec}
	prog, err := rp.stream()
	if err != nil {
		t.Fatal(err)
	}
	const hooks, total = 4, 400
	var wg sync.WaitGroup
	for g := 1; g <= hooks; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := g; done <= total; done += hooks {
				prog(done, total)
			}
		}()
	}
	wg.Wait()
	rp.send(http.StatusOK, SweepResponse{Design: "4B"})
	body := rec.Body.String()
	prog(total+1, total+1)
	if rec.Body.String() != body {
		t.Fatal("a progress call after the terminal event wrote to the response")
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "text/event-stream" {
		t.Fatalf("stream: code %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	events := readSSE(t, bufio.NewScanner(strings.NewReader(body)))
	if len(events) < 2 || events[len(events)-1].event != "result" {
		t.Fatalf("events %+v, want progress then one result", events)
	}
	prevDone := 0
	for _, ev := range events[:len(events)-1] {
		var p progressEvent
		if ev.event != "progress" || json.Unmarshal([]byte(ev.data), &p) != nil || p.Done <= prevDone || p.Total != total {
			t.Fatalf("event %+v after done=%d, want progress with a higher count of %d", ev, prevDone, total)
		}
		prevDone = p.Done
	}
	if prevDone != total {
		t.Fatalf("last progress count %d, want %d before the terminal event", prevDone, total)
	}
}
