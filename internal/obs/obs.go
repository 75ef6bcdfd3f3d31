// Package obs is the engine's zero-dependency tracing layer: context-carried
// trace and span identifiers, a bounded ring buffer of completed traces, an
// aggregated "time stack" report in the spirit of the paper's CPI stacks, and
// the small atomic histograms behind the daemon's engine-level metrics.
//
// The design mirrors internal/faults: tracing is globally disabled by default
// and the disabled fast path is a single atomic load, so Start calls stay in
// place at every interesting engine boundary (HTTP handler, sweep, pool task,
// memo cache, profiler measurement, contention solve) at no measurable cost.
// Tracing never influences results: spans only read the clock, so sweeps are
// bit-identical with tracing on or off.
//
// A trace is a tree of spans. The root span is opened with StartTrace (the
// server does this per request, the CLIs per figure); child spans are opened
// with StartSpan wherever the context flows. Ending the root span completes
// the trace and publishes it to the trace's Collector, whose ring buffer
// backs smtflexd's /debug/traces and /debug/timestack endpoints and the CLIs'
// -trace flag.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpansPerTrace bounds one trace's span list; spans beyond the cap are
// dropped and counted (the root is exempt — see End), so a runaway campaign
// cannot hold the whole sweep grid in memory. A cold 288-cell fleet sweep
// stitched 1,907 spans, which flight records are read from; cache hits are
// counted, not spanned (memo.Cache.GetCtx), so span volume tracks real work.
const maxSpansPerTrace = 8192

// enabled is the disabled-path gate, mirroring internal/faults.active.
var enabled atomic.Bool

// Enable turns span collection on process-wide. The server enables tracing at
// construction; CLIs enable it only under -trace.
func Enable() { enabled.Store(true) }

// Disable turns span collection off again (tests).
func Disable() { enabled.Store(false) }

// Enabled reports whether tracing is armed. The negative path is one atomic
// load.
func Enabled() bool { return enabled.Load() }

// spanKey carries the current *Span through a context.
type spanKey struct{}

// ridKey carries the request ID through a context, independent of tracing.
type ridKey struct{}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string
	Val any
}

// Span is one timed operation inside a trace. A nil *Span is a valid no-op:
// every method tolerates it, so call sites never branch on whether tracing is
// armed.
type Span struct {
	tr     *Trace
	ID     string
	Parent string
	Name   string
	Start  time.Time

	// end and attrs are written by the owning goroutine only; the trace's
	// mutex orders publication into the span list at End.
	end   time.Time
	attrs []Attr
}

// SetAttr annotates the span; nil-safe. Call before End.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
}

// End stamps the span's end time and publishes it into its trace. Ending the
// root span completes the trace and hands it to the collector. Nil-safe;
// a second End is ignored.
func (s *Span) End() {
	if s == nil || !s.end.IsZero() {
		return
	}
	s.end = time.Now()
	t := s.tr
	t.mu.Lock()
	// The root span is exempt from the cap: it ends last, so on an
	// over-budget trace the cap would otherwise drop the one span every
	// consumer (time stacks, decomposition, the /debug/traces listing)
	// anchors on.
	if len(t.spans) < maxSpansPerTrace || s.Parent == "" {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	if s.Parent == "" {
		t.finish(s.end)
	}
}

// Trace is one completed or in-flight span tree.
type Trace struct {
	ID        string
	Name      string
	RequestID string
	Start     time.Time

	col    *Collector
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []*Span // completed spans, in end order
	dropped int
	endTime time.Time
}

// newSpan allocates a child span.
func (t *Trace) newSpan(name, parent string) *Span {
	return &Span{
		tr:     t,
		ID:     "s" + strconv.FormatInt(t.nextID.Add(1), 10),
		Parent: parent,
		Name:   name,
		Start:  time.Now(),
	}
}

// finish publishes the trace to its collector once the root span ends.
func (t *Trace) finish(end time.Time) {
	t.mu.Lock()
	t.endTime = end
	t.mu.Unlock()
	if t.col != nil {
		t.col.add(t)
	}
}

// Duration returns the root span's wall time (zero while in flight).
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.endTime.IsZero() {
		return 0
	}
	return t.endTime.Sub(t.Start)
}

// TraceMeta is a trace's identity and size — the cheap summary behind the
// /debug/traces listing, which must not copy every span of every trace.
type TraceMeta struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	RequestID string    `json:"request_id,omitempty"`
	Start     time.Time `json:"start"`
	DurNs     int64     `json:"dur_ns"`
	Spans     int       `json:"spans"`
	Dropped   int       `json:"dropped_spans,omitempty"`
}

// Meta summarizes the trace without rendering its spans.
func (t *Trace) Meta() TraceMeta {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := TraceMeta{
		ID: t.ID, Name: t.Name, RequestID: t.RequestID, Start: t.Start,
		Spans: len(t.spans), Dropped: t.dropped,
	}
	if !t.endTime.IsZero() {
		m.DurNs = t.endTime.Sub(t.Start).Nanoseconds()
	}
	return m
}

// SpanJSON is the wire form of one span: times are nanoseconds relative to
// the trace start, so exports are stable regardless of wall-clock precision.
type SpanJSON struct {
	ID      string         `json:"id"`
	Parent  string         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartNs int64          `json:"start_ns"`
	DurNs   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// TraceJSON is the wire form of a trace for /debug/traces/{id}.
type TraceJSON struct {
	ID           string     `json:"id"`
	Name         string     `json:"name"`
	RequestID    string     `json:"request_id,omitempty"`
	Start        time.Time  `json:"start"`
	DurNs        int64      `json:"dur_ns"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	Spans        []SpanJSON `json:"spans"`
}

// Snapshot renders the trace's completed spans, sorted by start time. It is
// safe to call while late spans (from a coalesced compute that outlived the
// root) are still being appended.
func (t *Trace) Snapshot() TraceJSON {
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	dropped := t.dropped
	end := t.endTime
	t.mu.Unlock()

	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	out := TraceJSON{
		ID:           t.ID,
		Name:         t.Name,
		RequestID:    t.RequestID,
		Start:        t.Start,
		DroppedSpans: dropped,
		Spans:        make([]SpanJSON, len(spans)),
	}
	if !end.IsZero() {
		out.DurNs = end.Sub(t.Start).Nanoseconds()
	}
	for i, s := range spans {
		sj := SpanJSON{
			ID:      s.ID,
			Parent:  s.Parent,
			Name:    s.Name,
			StartNs: s.Start.Sub(t.Start).Nanoseconds(),
			DurNs:   s.end.Sub(s.Start).Nanoseconds(),
		}
		if len(s.attrs) > 0 {
			sj.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				sj.Attrs[a.Key] = a.Val
			}
		}
		out.Spans[i] = sj
	}
	return out
}

// Collector is a bounded ring buffer of completed traces, newest first.
type Collector struct {
	mu     sync.Mutex
	ring   []*Trace
	next   int
	filled bool
}

// NewCollector returns a collector keeping the most recent cap traces
// (default 128 when cap <= 0).
func NewCollector(cap int) *Collector {
	if cap <= 0 {
		cap = 128
	}
	return &Collector{ring: make([]*Trace, cap)}
}

// add inserts a completed trace, evicting the oldest past capacity.
func (c *Collector) add(t *Trace) {
	c.mu.Lock()
	c.ring[c.next] = t
	c.next++
	if c.next == len(c.ring) {
		c.next, c.filled = 0, true
	}
	c.mu.Unlock()
}

// Traces returns the buffered traces, newest first.
func (c *Collector) Traces() []*Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.next
	if c.filled {
		n = len(c.ring)
	}
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the most recent insertion point.
		idx := (c.next - 1 - i + len(c.ring)) % len(c.ring)
		if t := c.ring[idx]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Find returns the buffered trace with the given ID.
func (c *Collector) Find(id string) (*Trace, bool) {
	for _, t := range c.Traces() {
		if t.ID == id {
			return t, true
		}
	}
	return nil, false
}

// Len reports how many traces are buffered.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.filled {
		return len(c.ring)
	}
	return c.next
}

// StartTrace opens a root span and attaches the new trace to the context.
// The trace publishes to col when the root span ends. With tracing disabled
// or a nil collector it is a no-op returning (ctx, nil).
func StartTrace(ctx context.Context, col *Collector, name string) (context.Context, *Span) {
	if !enabled.Load() || col == nil {
		return ctx, nil
	}
	t := &Trace{ID: newID("t"), Name: name, RequestID: RequestID(ctx), Start: time.Now(), col: col}
	root := &Span{tr: t, ID: "s0", Name: name, Start: t.Start}
	return context.WithValue(ctx, spanKey{}, root), root
}

// StartSpan opens a child span of the context's current span. With tracing
// disabled, or no trace in the context, it is a no-op returning (ctx, nil) —
// one atomic load on the disabled path.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tr.newSpan(name, parent.ID)
	return context.WithValue(ctx, spanKey{}, s), s
}

// Detach returns a fresh background context carrying only the observability
// values (current span and request ID) of ctx — no deadline, no cancelation.
// The memo cache uses it so a coalesced compute's spans attach to the leader's
// trace while the compute's lifetime stays governed by the cache's own
// refcounted cancel.
func Detach(ctx context.Context) context.Context {
	out := context.Background()
	if sp, ok := ctx.Value(spanKey{}).(*Span); ok && enabled.Load() {
		out = context.WithValue(out, spanKey{}, sp)
	}
	if rid, ok := ctx.Value(ridKey{}).(string); ok {
		out = context.WithValue(out, ridKey{}, rid)
	}
	return out
}

// WithRequestID attaches a request identifier to the context; it flows into
// traces and log lines independently of whether tracing is enabled.
func WithRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, ridKey{}, rid)
}

// RequestID returns the context's request identifier, or "".
func RequestID(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// NewRequestID mints a fresh request identifier.
func NewRequestID() string { return newID("r") }

// idCounter backs newID when crypto/rand fails (it practically never does).
var idCounter atomic.Int64

// newID returns prefix-<16 hex chars>, unique with overwhelming probability.
func newID(prefix string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%s-%016x", prefix, idCounter.Add(1))
	}
	return prefix + "-" + hex.EncodeToString(b[:])
}
