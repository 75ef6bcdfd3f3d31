package trace_test

import (
	"sync"
	"testing"

	"smtflex/internal/trace"
	"smtflex/internal/workload"
)

// TestRecordingReplaysGenerator holds the replay contract for every
// benchmark: a reader over a recording yields NewGenerator's stream µop for
// µop through the recorded prefix and past it, and again after Reset.
func TestRecordingReplaysGenerator(t *testing.T) {
	const n, past = 20_000, 1_000
	for _, spec := range workload.Benchmarks() {
		rec, err := trace.Record(spec, 0xF00D, n)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if rec.Len() != n {
			t.Fatalf("%s: recorded %d µops, want %d", spec.Name, rec.Len(), n)
		}
		r := rec.Reader()
		for pass := 0; pass < 2; pass++ {
			g, err := trace.NewGenerator(spec, 0xF00D)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n+past; i++ {
				if got, want := r.Next(), g.Next(); got != want {
					t.Fatalf("%s pass %d µop %d: replay %+v, generator %+v", spec.Name, pass, i, got, want)
				}
				if r.Count() != g.Count() {
					t.Fatalf("%s pass %d µop %d: count %d, generator %d", spec.Name, pass, i, r.Count(), g.Count())
				}
			}
			r.Reset()
			if r.Count() != 0 {
				t.Fatalf("%s: count %d after Reset", spec.Name, r.Count())
			}
		}
	}
}

// TestRecordingReadersIndependent checks that concurrent readers over one
// recording, running past its end, do not disturb each other.
func TestRecordingReadersIndependent(t *testing.T) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.Record(spec, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g, err := trace.NewGenerator(spec, 7)
			if err != nil {
				t.Error(err)
				return
			}
			rd := rec.Reader()
			for i := 0; i < 2_000; i++ {
				if got, want := rd.Next(), g.Next(); got != want {
					t.Errorf("reader %d µop %d: %+v, generator %+v", r, i, got, want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestRecordRejectsBadSpec(t *testing.T) {
	if _, err := trace.Record(trace.Spec{Name: "empty"}, 1, 10); err == nil {
		t.Fatal("invalid spec recorded")
	}
}
