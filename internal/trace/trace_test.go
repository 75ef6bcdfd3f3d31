package trace

import (
	"math"
	"testing"
	"testing/quick"

	"smtflex/internal/isa"
)

func testSpec() Spec {
	var m [isa.NumClasses]float64
	m[isa.Load] = 0.25
	m[isa.Store] = 0.10
	m[isa.Branch] = 0.10
	m[isa.Jump] = 0.01
	m[isa.FpAdd] = 0.05
	m[isa.IntAlu] = 0.49
	return Spec{
		Name:               "test",
		Mix:                m,
		MeanDepDist:        8,
		SecondSrcProb:      0.5,
		BranchRandomFrac:   0.2,
		CodeFootprintBytes: 8 << 10,
		Streams: []MemStream{
			{Weight: 0.7, WorkingSetBytes: 16 << 10},
			{Weight: 0.3, WorkingSetBytes: 1 << 20, Sequential: true, StrideBytes: 16},
		},
		Seed: 0x42,
	}
}

func mustGen(t *testing.T, spec Spec, seed uint64) *Generator {
	t.Helper()
	g, err := NewGenerator(spec, seed)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := testSpec()
	bad.Mix[isa.IntAlu] = 0 // mix no longer sums to 1
	if err := bad.Validate(); err == nil {
		t.Error("bad mix accepted")
	}
	bad = testSpec()
	bad.MeanDepDist = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("bad dep dist accepted")
	}
	bad = testSpec()
	bad.BranchRandomFrac = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("bad branch frac accepted")
	}
	bad = testSpec()
	bad.CodeFootprintBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero code footprint accepted")
	}
	bad = testSpec()
	bad.Streams = nil
	if err := bad.Validate(); err == nil {
		t.Error("no streams accepted")
	}
	bad = testSpec()
	bad.Streams[1].StrideBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero stride accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a := mustGen(t, testSpec(), 7)
	b := mustGen(t, testSpec(), 7)
	for i := 0; i < 10000; i++ {
		ua, ub := a.Next(), b.Next()
		if ua != ub {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, ua, ub)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := mustGen(t, testSpec(), 1)
	b := mustGen(t, testSpec(), 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("different seeds produced %d/1000 identical µops", same)
	}
}

func TestResetReproduces(t *testing.T) {
	g := mustGen(t, testSpec(), 3)
	first := make([]isa.Uop, 1000)
	for i := range first {
		first[i] = g.Next()
	}
	g.Reset()
	if g.Count() != 0 {
		t.Fatal("count not reset")
	}
	for i := range first {
		if u := g.Next(); u != first[i] {
			t.Fatalf("reset stream diverged at %d", i)
		}
	}
}

func TestMixFractions(t *testing.T) {
	spec := testSpec()
	g := mustGen(t, spec, 11)
	var counts [isa.NumClasses]int
	const n = 200000
	for i := 0; i < n; i++ {
		counts[g.Next().Class]++
	}
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		got := float64(counts[c]) / n
		if math.Abs(got-spec.Mix[c]) > 0.01 {
			t.Errorf("%v: fraction %.3f, want %.3f", c, got, spec.Mix[c])
		}
	}
}

func TestDependencyDistanceMean(t *testing.T) {
	spec := testSpec()
	g := mustGen(t, spec, 13)
	var sum, n float64
	for i := 0; i < 100000; i++ {
		u := g.Next()
		if u.SrcDist[0] > 0 && u.Class != isa.Load {
			sum += float64(u.SrcDist[0])
			n++
		}
	}
	mean := sum / n
	if math.Abs(mean-spec.MeanDepDist) > 1.0 {
		t.Errorf("mean dep dist %.2f, want ~%.1f", mean, spec.MeanDepDist)
	}
}

func TestAddressesWithinWorkingSets(t *testing.T) {
	spec := testSpec()
	g := mustGen(t, spec, 17)
	for i := 0; i < 50000; i++ {
		u := g.Next()
		if !u.Class.IsMem() {
			continue
		}
		// Each stream lives in its own 1 GiB region; the offset within the
		// region must stay below the stream's working set.
		region := u.Addr >> 30
		if region < 1 || region > uint64(len(spec.Streams)) {
			t.Fatalf("address %#x outside stream regions", u.Addr)
		}
		off := u.Addr - (region << 30)
		ws := uint64(spec.Streams[region-1].WorkingSetBytes)
		if off >= ws {
			t.Fatalf("offset %d beyond working set %d of stream %d", off, ws, region-1)
		}
	}
}

func TestPCWithinCodeFootprint(t *testing.T) {
	spec := testSpec()
	g := mustGen(t, spec, 19)
	base := uint64(1) << 62
	for i := 0; i < 50000; i++ {
		u := g.Next()
		if u.PC < base || u.PC >= base+uint64(spec.CodeFootprintBytes) {
			t.Fatalf("PC %#x outside code footprint", u.PC)
		}
	}
}

func TestBranchBiasConsistency(t *testing.T) {
	// Non-random branches at the same PC always take the same direction, so
	// a per-PC predictor can learn them.
	spec := testSpec()
	spec.BranchRandomFrac = 0
	g := mustGen(t, spec, 23)
	dirs := map[uint64]bool{}
	for i := 0; i < 100000; i++ {
		u := g.Next()
		if u.Class != isa.Branch {
			continue
		}
		if prev, ok := dirs[u.PC]; ok && prev != u.Taken {
			t.Fatalf("biased branch at %#x changed direction", u.PC)
		}
		dirs[u.PC] = u.Taken
	}
}

func TestSequentialStreamStrides(t *testing.T) {
	var m [isa.NumClasses]float64
	m[isa.Load] = 0.5
	m[isa.IntAlu] = 0.5
	spec := Spec{
		Name: "seq", Mix: m, MeanDepDist: 4, CodeFootprintBytes: 1024,
		Streams: []MemStream{{Weight: 1, WorkingSetBytes: 1 << 20, Sequential: true, StrideBytes: 64}},
	}
	g := mustGen(t, spec, 29)
	var last uint64
	seen := false
	for i := 0; i < 1000; i++ {
		u := g.Next()
		if u.Class != isa.Load {
			continue
		}
		if seen && u.Addr != last+64 && u.Addr >= last {
			t.Fatalf("stride violated: %#x -> %#x", last, u.Addr)
		}
		last, seen = u.Addr, true
	}
}

func TestPointerChaseSerializes(t *testing.T) {
	var m [isa.NumClasses]float64
	m[isa.Load] = 1.0
	spec := Spec{
		Name: "chase", Mix: m, MeanDepDist: 100, CodeFootprintBytes: 1024,
		Streams: []MemStream{{Weight: 1, WorkingSetBytes: 1 << 20, PointerChase: true}},
	}
	g := mustGen(t, spec, 31)
	for i := 0; i < 100; i++ {
		if u := g.Next(); u.SrcDist[0] != 1 {
			t.Fatalf("pointer-chase load has dep dist %d, want 1", u.SrcDist[0])
		}
	}
}

func TestOffsetAddresses(t *testing.T) {
	g1 := mustGen(t, testSpec(), 37)
	g2 := mustGen(t, testSpec(), 37)
	r := OffsetAddresses(g2, 1<<40)
	for i := 0; i < 1000; i++ {
		u1, u2 := g1.Next(), r.Next()
		if u1.Class.IsMem() {
			if u2.Addr != u1.Addr+1<<40 {
				t.Fatalf("offset not applied: %#x vs %#x", u1.Addr, u2.Addr)
			}
		} else if u2.Addr != u1.Addr {
			t.Fatalf("non-mem address changed")
		}
	}
	r.Reset()
	if r.Count() != 0 {
		t.Fatal("offset reader reset failed")
	}
}

func TestGeneratorCount(t *testing.T) {
	g := mustGen(t, testSpec(), 41)
	for i := 0; i < 55; i++ {
		g.Next()
	}
	if g.Count() != 55 {
		t.Fatalf("count %d", g.Count())
	}
}

func TestDeterminismProperty(t *testing.T) {
	// Property: for any seed, two generators agree on the first 200 µops.
	f := func(seed uint64) bool {
		a := mustGen(t, testSpec(), seed)
		b := mustGen(t, testSpec(), seed)
		for i := 0; i < 200; i++ {
			if a.Next() != b.Next() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordingByteBudget holds the packed format to eight bytes per µop
// plus eight per memory µop.
func TestRecordingByteBudget(t *testing.T) {
	const n = 30_000
	rec, err := Record(testSpec(), 1, n)
	if err != nil {
		t.Fatal(err)
	}
	g := mustGen(t, testSpec(), 1)
	mem := 0
	for i := 0; i < n; i++ {
		if g.Next().Class.IsMem() {
			mem++
		}
	}
	if got, budget := 8*(cap(rec.words)+cap(rec.addrs)), 8*n+8*mem; got > budget {
		t.Errorf("recording takes %d bytes, budget %d", got, budget)
	}
}

// TestThresholdsMatchFloatCompare holds below and above to the float
// comparisons they replace, k/2^53 < c and k/2^53 > p, for draws on both
// sides of each threshold and for edge probabilities.
func TestThresholdsMatchFloatCompare(t *testing.T) {
	const one = 1 << unitBits
	ps := []float64{0, 1, 0.5, 0.05, 1.0 / 3, 1.0 / 7, math.Nextafter(1, 0), 5e-324, 1e-300}
	r := rng{state: 3}
	for i := 0; i < 200; i++ {
		ps = append(ps, float64(r.draw())/one*float64(1+r.next()%3))
	}
	for _, p := range append(ps, -1, 2, math.NaN(), math.Inf(1)) {
		lo, hi := below(p), above(p)
		for _, k := range []uint64{0, 1, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, one - 1, r.draw()} {
			if k >= one {
				continue
			}
			f := float64(k) / one
			if got, want := k < lo, f < p; got != want {
				t.Errorf("below(%v): draw %d: %v, float compare %v", p, k, got, want)
			}
			if p < 0 || p > 1 {
				continue // outside above's domain
			}
			if got, want := k > hi, f > p; got != want {
				t.Errorf("above(%v): draw %d: %v, float compare %v", p, k, got, want)
			}
		}
	}
}
