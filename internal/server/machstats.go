package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"smtflex/internal/interval"
	"smtflex/internal/machstats"
	"smtflex/internal/study"
)

// The machine-stats surfaces: optional ?machstats=1 CPI-stack attachments on
// /v1/sweep and /v1/place, the GET /debug/machstats registry dump, and the
// reply that turns GET /v1/sweep?stream=1 into a live-progress stream
// (Server-Sent Events) fed by the experiment pool's progress hook.

// wantMachStats reports whether the request asked for the CPI-stack
// attachment.
func wantMachStats(r *http.Request) bool {
	switch r.URL.Query().Get("machstats") {
	case "1", "true":
		return true
	}
	return false
}

// wireStack converts an interval CPI stack to its wire form.
func wireStack(st interval.CPIStack) []StackComponent {
	comps := st.Components()
	out := make([]StackComponent, len(comps))
	for i, c := range comps {
		out[i] = StackComponent{Component: c.Name, CPI: c.CPI}
	}
	return out
}

// sweepMachStats builds the sweep attachment from the sweep's mean stacks.
func sweepMachStats(sw *study.Sweep) *SweepMachStats {
	ms := &SweepMachStats{MeanStacks: make([][]StackComponent, study.MaxThreads)}
	for n := 0; n < study.MaxThreads; n++ {
		ms.MeanStacks[n] = wireStack(sw.MeanStack[n])
	}
	return ms
}

// placeMachStats builds the placement attachment from the evaluation's
// per-thread detail.
func placeMachStats(threads []study.MixThread) *PlaceMachStats {
	ms := &PlaceMachStats{Threads: make([]ThreadStack, len(threads))}
	for i, th := range threads {
		ms.Threads[i] = ThreadStack{
			Program:   th.Program,
			Core:      th.Core,
			IPC:       th.IPC,
			UopsPerNs: th.UopsPerNs,
			Total:     th.Stack.Total(),
			Stack:     wireStack(th.Stack),
		}
	}
	return ms
}

// handleMachStats serves the machine-counter registry: the full snapshot as
// JSON (the same schema as the CLIs' -machstats export) or the CPI-stack
// records as CSV with ?format=csv. When the registry is disarmed the
// response says so instead of serving silently-empty data.
func (s *Server) handleMachStats(w http.ResponseWriter, r *http.Request) {
	if !machstats.Enabled() {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "machine counters disabled (run smtflexd with -machstats, or enable collection in-process)"})
		return
	}
	snap := machstats.Default().Snapshot()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = snap.WriteJSON(w)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		_ = snap.WriteStacksCSV(w)
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("unknown format %q (want json or csv)", format)})
	}
}

// --- live sweep progress (SSE) ---

// progressEvent is the data payload of one SSE progress event.
type progressEvent struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// writeSSE emits one Server-Sent Event and flushes it to the client.
func writeSSE(w http.ResponseWriter, f http.Flusher, event string, data any) {
	b, err := json.Marshal(data)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	f.Flush()
}

// reply is how endpoint answers one request: with one JSON document, or,
// once the handler has begun a Server-Sent Events stream, with "progress"
// events ({"done":k,"total":n} pool tasks) and one terminal "result" or
// "error" event in place of the document. Cache hits and coalesced sweeps
// produce no progress events (nothing is computed); the terminal event
// still arrives.
//
// Progress arrives on pool workers, which must never block, and may arrive
// after the handler has returned: a compute that coalesced waiters keep
// alive keeps calling its leader's hook. So the hook only raises an atomic
// high-water mark and nudges a one-slot channel, and one writer goroutine,
// the response's only writer until send stops it, turns the mark into
// events. Counts the writer misses are dropped; a later one carries more.
type reply struct {
	w       http.ResponseWriter
	flusher http.Flusher // non-nil once the stream has begun

	done, total   atomic.Int64  // progress high-water mark
	nudge         chan struct{} // one slot: wakes the writer
	stop, stopped chan struct{}
}

// replyKey keys the request's *reply in its handler's context.
type replyKey struct{}

// stream begins the event stream: 200 text/event-stream now, then one
// progress event whenever the returned hook has raised the mark.
func (rp *reply) stream() (study.ProgressFunc, error) {
	f, ok := rp.w.(http.Flusher)
	if !ok {
		return nil, errors.New("streaming unsupported by connection")
	}
	h := rp.w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	rp.w.WriteHeader(http.StatusOK)
	f.Flush()
	rp.flusher = f
	rp.nudge = make(chan struct{}, 1)
	rp.stop, rp.stopped = make(chan struct{}), make(chan struct{})
	go rp.writeProgress()
	return rp.progress, nil
}

// progress raises the mark to done and nudges the writer. It never blocks
// and never touches the ResponseWriter.
func (rp *reply) progress(done, total int) {
	rp.total.Store(int64(total))
	for {
		cur := rp.done.Load()
		if int64(done) <= cur || rp.done.CompareAndSwap(cur, int64(done)) {
			break
		}
	}
	select {
	case rp.nudge <- struct{}{}:
	default:
	}
}

// writeProgress writes the mark whenever it has risen, so done counts
// strictly increase, and once more when send stops it, so the terminal
// event follows the last count.
func (rp *reply) writeProgress() {
	defer close(rp.stopped)
	var written int64
	for stopping := false; !stopping; {
		select {
		case <-rp.nudge:
		case <-rp.stop:
			stopping = true
		}
		if done := rp.done.Load(); done > written {
			written = done
			writeSSE(rp.w, rp.flusher, "progress", progressEvent{Done: int(done), Total: int(rp.total.Load())})
		}
	}
}

// send writes the handler's outcome: a JSON document with its status, or,
// once the stream has begun, the terminal event after the writer stops.
func (rp *reply) send(code int, v any) {
	if rp.flusher == nil {
		writeJSON(rp.w, code, v)
		return
	}
	close(rp.stop)
	<-rp.stopped
	event := "result"
	if code != http.StatusOK {
		event = "error"
	}
	writeSSE(rp.w, rp.flusher, event, v)
}
