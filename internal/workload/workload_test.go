package workload

import (
	"reflect"
	"sort"
	"testing"

	"smtflex/internal/isa"
	"smtflex/internal/trace"
)

func TestBenchmarksValid(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 12 {
		t.Fatalf("%d benchmarks, want 12 (the paper's selection size)", len(bs))
	}
	for _, b := range bs {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
	if !sort.SliceIsSorted(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name }) {
		t.Error("benchmarks not sorted")
	}
}

func TestNamesUniqueAndSeedsDistinct(t *testing.T) {
	seen := map[string]bool{}
	seeds := map[uint64]bool{}
	for _, b := range Benchmarks() {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
		if seeds[b.Seed] {
			t.Errorf("duplicate seed %#x", b.Seed)
		}
		seeds[b.Seed] = true
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("mcf")
	if err != nil || b.Name != "mcf" {
		t.Fatalf("ByName(mcf): %v %v", b.Name, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	for _, want := range Benchmarks() {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%s) = %+v, want %+v", want.Name, got, want)
		}
	}
	if got := Names(); len(got) != 12 || !sort.StringsAreSorted(got) {
		t.Errorf("Names() = %v", got)
	}
}

// TestByNameReadsOneTable holds lookups to the one table: at most one
// allocation (the copy of the spec's streams), where rebuilding the suite
// took sixteen.
func TestByNameReadsOneTable(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ByName("omnetpp"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("ByName allocates %.1f times per call, want at most 1", allocs)
	}
}

func TestLookupsReturnCopies(t *testing.T) {
	a, err := ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	want := a.Streams[0]
	a.Streams[0].WorkingSetBytes = 1
	a.Streams = append(a.Streams, trace.MemStream{Weight: 1})
	Benchmarks()[0].Streams[0].Weight = 99
	Names()[0] = "changed"
	b, err := ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	if b.Streams[0] != want || len(b.Streams) != len(a.Streams)-1 {
		t.Errorf("a caller's change reached the table: %+v", b.Streams)
	}
	if bs, ns := Benchmarks(), Names(); bs[0].Streams[0].Weight == 99 || ns[0] == "changed" {
		t.Errorf("a caller's change reached the table: %+v %v", bs[0].Streams[0], ns[0])
	}
}

func TestBehaviouralSpread(t *testing.T) {
	// The selection must cover the full behavioural range, as the paper's
	// did: at least one streaming bandwidth-bound benchmark, one
	// pointer-chasing benchmark, one branchy benchmark and one compute
	// benchmark with near-zero far-memory traffic.
	var streaming, chasing, branchy, compute bool
	for _, b := range Benchmarks() {
		var farWeight, w float64
		var seq, chase bool
		for _, s := range b.Streams {
			w += s.Weight
			if s.WorkingSetBytes > 8<<20 {
				farWeight += s.Weight
				if s.Sequential {
					seq = true
				}
				if s.PointerChase {
					chase = true
				}
			}
		}
		farFrac := farWeight / w
		switch {
		case seq && farFrac > 0.5:
			streaming = true
		case chase && farFrac > 0.1:
			chasing = true
		}
		if b.BranchRandomFrac >= 0.15 {
			branchy = true
		}
		if farFrac == 0 && b.Mix[isa.FpAdd] > 0.1 {
			compute = true
		}
	}
	if !streaming || !chasing || !branchy || !compute {
		t.Fatalf("selection lacks coverage: streaming=%t chasing=%t branchy=%t compute=%t",
			streaming, chasing, branchy, compute)
	}
}

func TestHomogeneousMixes(t *testing.T) {
	ms := HomogeneousMixes(5)
	if len(ms) != 12 {
		t.Fatalf("%d homogeneous mixes", len(ms))
	}
	for _, m := range ms {
		if m.NumThreads() != 5 {
			t.Fatalf("%s has %d threads", m.ID, m.NumThreads())
		}
		for _, p := range m.Programs {
			if p != m.Programs[0] {
				t.Fatalf("%s not homogeneous", m.ID)
			}
		}
	}
}

func TestHeterogeneousMixesBalanced(t *testing.T) {
	const n, per = 6, 12
	ms := HeterogeneousMixes(n, per, 1)
	if len(ms) != per {
		t.Fatalf("%d mixes", len(ms))
	}
	counts := map[string]int{}
	for _, m := range ms {
		if m.NumThreads() != n {
			t.Fatalf("%s has %d threads", m.ID, m.NumThreads())
		}
		for _, p := range m.Programs {
			counts[p]++
		}
	}
	// Balanced random sampling: every benchmark appears 72/12 = 6 times.
	for _, name := range Names() {
		if counts[name] != n*per/12 {
			t.Errorf("%s appears %d times, want %d", name, counts[name], n*per/12)
		}
	}
}

func TestHeterogeneousMixesDeterministic(t *testing.T) {
	a := HeterogeneousMixes(4, 12, 99)
	b := HeterogeneousMixes(4, 12, 99)
	for i := range a {
		for j := range a[i].Programs {
			if a[i].Programs[j] != b[i].Programs[j] {
				t.Fatal("mixes not deterministic")
			}
		}
	}
	c := HeterogeneousMixes(4, 12, 100)
	same := true
	for i := range a {
		for j := range a[i].Programs {
			if a[i].Programs[j] != c[i].Programs[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical mixes")
	}
}

func TestReadersDisjointAddresses(t *testing.T) {
	m := Mix{ID: "x", Programs: []string{"mcf", "mcf"}}
	readers, err := m.Readers(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(readers) != 2 {
		t.Fatalf("%d readers", len(readers))
	}
	// Collect data addresses from both and check the regions don't overlap.
	seen0 := map[uint64]bool{}
	for i := 0; i < 3000; i++ {
		u := readers[0].Next()
		if u.Class.IsMem() {
			seen0[u.Addr>>40] = true
		}
	}
	for i := 0; i < 3000; i++ {
		u := readers[1].Next()
		if u.Class.IsMem() && seen0[u.Addr>>40] {
			t.Fatal("co-runner address regions overlap")
		}
	}
}

func TestReadersUnknownBenchmark(t *testing.T) {
	m := Mix{ID: "x", Programs: []string{"nope"}}
	if _, err := m.Readers(1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
