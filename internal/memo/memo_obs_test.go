package memo

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"smtflex/internal/obs"
)

func TestCountersTrackHitsMissesCoalesced(t *testing.T) {
	var c Cache[int, int]
	c.Name = "profiles"

	if _, err := c.Get(1, func() (int, error) { return 10, nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Get(1, func() (int, error) { return 10, nil }); err != nil {
			t.Fatal(err)
		}
	}

	// Coalesce: release holds the in-flight compute open while ten callers
	// pile onto the same key, so all of them must join it rather than miss.
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Get(2, func() (int, error) { close(started); <-release; return 20, nil })
	}()
	<-started
	const followers = 10
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := c.Get(2, func() (int, error) { return -1, nil }); err != nil || v != 20 {
				panic("follower got wrong value") // panicgate:allow — test goroutine
			}
		}()
	}
	// The followers register as waiters (hits) before the compute finishes;
	// busy-wait on the counter to know they have all arrived.
	for c.Counters().Coalesced < followers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	got := c.Counters()
	want := Counters{Name: "profiles", Hits: 3 + followers, Misses: 2, Coalesced: followers, Entries: 2}
	if got != want {
		t.Fatalf("Counters() = %+v, want %+v", got, want)
	}
}

func TestCountersDefaultName(t *testing.T) {
	var c Cache[string, int]
	if got := c.Counters().Name; got != "cache" {
		t.Fatalf("unnamed cache labelled %q", got)
	}
}

// TestGetTracedSpans verifies the memo.get span policy: outcome=compute on a
// miss (with the compute's own spans nested inside) and NO span on a pure
// hit — hits are nanosecond lookups counted by Counters, and spanning them
// would flood a hot sweep's span budget.
func TestGetTracedSpans(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	col := obs.NewCollector(1)
	ctx, root := obs.StartTrace(context.Background(), col, "req")

	var c Cache[int, int]
	c.Name = "sweeps"
	compute := func(cctx context.Context) (int, error) {
		_, inner := obs.StartSpan(cctx, "contention.solve")
		inner.End()
		return 7, nil
	}
	if v, err := c.GetTraced(ctx, 1, compute); err != nil || v != 7 {
		t.Fatalf("miss: %v %v", v, err)
	}
	if v, err := c.GetTraced(ctx, 1, compute); err != nil || v != 7 {
		t.Fatalf("hit: %v %v", v, err)
	}
	root.End()

	snap := col.Traces()[0].Snapshot()
	var outcomes []string
	var solveParent, computeID string
	for _, s := range snap.Spans {
		switch s.Name {
		case "memo.get":
			if s.Attrs["cache"] != "sweeps" {
				t.Fatalf("memo.get cache attr = %v", s.Attrs["cache"])
			}
			out, _ := s.Attrs["outcome"].(string)
			outcomes = append(outcomes, out)
			if out == "compute" {
				computeID = s.ID
			}
		case "contention.solve":
			solveParent = s.Parent
		}
	}
	if len(outcomes) != 1 || outcomes[0] != "compute" {
		t.Fatalf("outcomes = %v, want [compute] (hits must not span)", outcomes)
	}
	if solveParent == "" || solveParent != computeID {
		t.Fatalf("solve span parent %q, want the compute memo.get span %q", solveParent, computeID)
	}
}
