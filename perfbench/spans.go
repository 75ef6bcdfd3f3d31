package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// rootLayer marks a workload's timed phase; the ledger's shares are fractions
// of the time its root spans cover. Probe spans hang under probeLayer roots
// and are written to the span file but stay out of the shares.
const (
	rootLayer  = "workload"
	probeLayer = "probe"
)

// spanRec is one finished span. Group is shared by every span of one figure,
// profile call or request, including spans recorded on the server side.
type spanRec struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Group   int64  `json:"group"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory until the run ends. A nil
// tracer records nothing, which is how untraced passes run.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []spanRec
	// serverSpan maps a request group to its front server's span, so worker
	// spans (which see only the request ID) nest under it.
	serverSpan map[int64]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), serverSpan: map[int64]int64{}}
}

// span is an open span; the zero value (from a nil tracer) is inert.
type span struct {
	t   *tracer
	rec spanRec
}

// group allocates a fresh group id (0 on a nil tracer).
func (t *tracer) group() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) begin(layer, name string, parent, group int64) span {
	if t == nil {
		return span{}
	}
	return span{t: t, rec: spanRec{
		ID: t.ids.Add(1), Parent: parent, Group: group, Layer: layer, Name: name,
		StartNs: int64(time.Since(t.epoch)),
	}}
}

// beginAt opens a span that started at the given time, such as a request's
// due time in the open loop.
func (t *tracer) beginAt(layer, name string, parent, group int64, at time.Time) span {
	sp := t.begin(layer, name, parent, group)
	if t != nil {
		sp.rec.StartNs = int64(at.Sub(t.epoch))
	}
	return sp
}

func (s span) id() int64 { return s.rec.ID }

func (s span) end() {
	if s.t == nil {
		return
	}
	s.rec.EndNs = int64(time.Since(s.t.epoch))
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// requestID encodes a request's group and client span for the X-Request-ID
// header; the daemon passes it through to fleet workers unchanged.
func requestID(group, parent int64) string {
	return fmt.Sprintf("bench-%d-%d", group, parent)
}

// parseRequestID is requestID's inverse; foreign IDs yield zeros.
func parseRequestID(rid string) (group, parent int64) {
	f := strings.Split(rid, "-")
	if len(f) != 3 || f[0] != "bench" {
		return 0, 0
	}
	g, err1 := strconv.ParseInt(f[1], 10, 64)
	p, err2 := strconv.ParseInt(f[2], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0
	}
	return g, p
}

// setServerSpan and serverSpanOf link a request group to its front server
// span.
func (t *tracer) setServerSpan(group, id int64) {
	if t == nil || group == 0 {
		return
	}
	t.mu.Lock()
	t.serverSpan[group] = id
	t.mu.Unlock()
}

func (t *tracer) serverSpanOf(group int64) (int64, bool) {
	if t == nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.serverSpan[group]
	return id, ok
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	b, err := json.Marshal(struct {
		Spans []spanRec `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type ivl struct{ lo, hi int64 }

// union merges overlapping intervals and returns them sorted.
func union(iv []ivl) []ivl {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var out []ivl
	for _, x := range iv {
		if x.hi <= x.lo {
			continue
		}
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			if x.hi > out[n-1].hi {
				out[n-1].hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func length(iv []ivl) int64 {
	var t int64
	for _, x := range iv {
		t += x.hi - x.lo
	}
	return t
}

// minus returns x without the parts covered by the sorted, disjoint cover.
func minus(x ivl, cover []ivl) []ivl {
	var out []ivl
	lo := x.lo
	for _, c := range cover {
		if c.hi <= lo || c.lo >= x.hi {
			continue
		}
		if c.lo > lo {
			out = append(out, ivl{lo, c.lo})
		}
		if c.hi > lo {
			lo = c.hi
		}
	}
	if lo < x.hi {
		out = append(out, ivl{lo, x.hi})
	}
	return out
}

// clip intersects iv with the sorted, disjoint windows.
func clip(iv []ivl, windows []ivl) []ivl {
	var out []ivl
	for _, x := range iv {
		for _, w := range windows {
			lo, hi := max(x.lo, w.lo), min(x.hi, w.hi)
			if lo < hi {
				out = append(out, ivl{lo, hi})
			}
		}
	}
	return out
}

// shares computes, for every spanned layer, the fraction of the timed phase
// during which at least one of its spans was open (<layer>.share) and during
// which one was open with no child span covering it (<layer>.self_share),
// plus ledger.coverage: the fraction any layer span covers.
func (t *tracer) shares() map[string]float64 {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()

	var roots []ivl
	children := map[int64][]ivl{}
	for _, s := range spans {
		if s.Layer == rootLayer {
			roots = append(roots, ivl{s.StartNs, s.EndNs})
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], ivl{s.StartNs, s.EndNs})
		}
	}
	roots = union(roots)
	wall := float64(length(roots))
	out := map[string]float64{}
	busy := map[string][]ivl{}
	self := map[string][]ivl{}
	var all []ivl
	for _, s := range spans {
		if s.Layer == rootLayer || s.Layer == probeLayer {
			continue
		}
		x := ivl{s.StartNs, s.EndNs}
		busy[s.Layer] = append(busy[s.Layer], x)
		self[s.Layer] = append(self[s.Layer], minus(x, union(children[s.ID]))...)
		all = append(all, x)
	}
	for _, l := range spanLayers {
		out[l+".share"], out[l+".self_share"] = 0, 0
		if wall > 0 {
			out[l+".share"] = float64(length(union(clip(union(busy[l]), roots)))) / wall
			out[l+".self_share"] = float64(length(union(clip(union(self[l]), roots)))) / wall
		}
	}
	out["ledger.coverage"] = 0
	if wall > 0 {
		out["ledger.coverage"] = float64(length(union(clip(union(all), roots)))) / wall
	}
	return out
}
