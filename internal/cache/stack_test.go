package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveLRUMisses simulates a fully-associative LRU cache of the given block
// capacity over the reference stream and counts misses — the oracle the
// stack profiler must agree with at power-of-two capacities.
func naiveLRUMisses(refs []uint64, capacity int) int {
	type node struct{ block uint64 }
	var lru []node // front = MRU
	misses := 0
	for _, b := range refs {
		found := -1
		for i, n := range lru {
			if n.block == b {
				found = i
				break
			}
		}
		if found < 0 {
			misses++
			lru = append([]node{{b}}, lru...)
			if len(lru) > capacity {
				lru = lru[:capacity]
			}
		} else {
			n := lru[found]
			lru = append(lru[:found], lru[found+1:]...)
			lru = append([]node{n}, lru...)
		}
	}
	return misses
}

func TestStackProfilerMatchesNaiveLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	refs := make([]uint64, 3000)
	for i := range refs {
		refs[i] = uint64(rng.Intn(200))
	}
	p := NewStackProfiler(0)
	for _, b := range refs {
		p.Touch(b)
	}
	for _, capacity := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		want := float64(naiveLRUMisses(refs, capacity)) / float64(len(refs))
		got := p.MissRatio(capacity)
		if diff := got - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("capacity %d: miss ratio %g, naive LRU %g", capacity, got, want)
		}
	}
}

// TestStackProfilerMatchesNaiveLRUAcrossGrowth runs the oracle comparison
// on a stream long enough to double the Fenwick tree and the block table
// several times, mixing a hot set with a wide one so distances straddle
// every growth.
func TestStackProfilerMatchesNaiveLRUAcrossGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewStackProfiler(0)
	initial, initialSlots := p.live.size(), len(p.last.slots)
	refs := make([]uint64, 9000)
	for i := range refs {
		if rng.Intn(4) == 0 {
			refs[i] = 1000 + uint64(rng.Intn(2000))
		} else {
			refs[i] = uint64(rng.Intn(24))
		}
	}
	for _, b := range refs {
		p.Touch(b)
	}
	if p.live.size() < 4*initial {
		t.Fatalf("tree grew from %d to %d timestamps, want at least two doublings", initial, p.live.size())
	}
	if len(p.last.slots) < 2*initialSlots {
		t.Fatalf("block table grew from %d to %d slots, want at least one doubling", initialSlots, len(p.last.slots))
	}
	for capacity := 1; capacity <= 4096; capacity *= 2 {
		want := float64(naiveLRUMisses(refs, capacity)) / float64(len(refs))
		if got := p.MissRatio(capacity); got != want {
			t.Errorf("capacity %d: miss ratio %g, naive LRU %g", capacity, got, want)
		}
	}
}

func TestStackProfilerSequential(t *testing.T) {
	// A strict streaming pattern never reuses: every access is a miss at any
	// capacity.
	p := NewStackProfiler(0)
	for b := uint64(0); b < 1000; b++ {
		p.Touch(b)
	}
	for _, capacity := range []int{1, 64, 1 << 20} {
		if got := p.MissRatio(capacity); got != 1 {
			t.Errorf("streaming miss ratio at %d = %g, want 1", capacity, got)
		}
	}
}

func TestStackProfilerLoop(t *testing.T) {
	// Looping over N blocks: hits once capacity >= N, all misses below
	// (classic LRU cliff).
	const n = 64
	p := NewStackProfiler(0)
	for round := 0; round < 10; round++ {
		for b := uint64(0); b < n; b++ {
			p.Touch(b)
		}
	}
	if got := p.MissRatio(n); got > 0.11 {
		t.Errorf("loop fits at capacity %d but miss ratio %g", n, got)
	}
	if got := p.MissRatio(n / 2); got != 1 {
		t.Errorf("LRU loop thrash below capacity should miss always, got %g", got)
	}
}

func TestCheckpointDelta(t *testing.T) {
	p := NewStackProfiler(0)
	// Warmup: streaming garbage.
	for b := uint64(10000); b < 11000; b++ {
		p.Touch(b)
	}
	snap := p.Checkpoint()
	// Measured window: tight 8-block loop, all hits after the first touches.
	for round := 0; round < 100; round++ {
		for b := uint64(0); b < 8; b++ {
			p.Touch(b)
		}
	}
	if got := p.MissRatioSince(snap, 8); got > 0.02 {
		t.Errorf("post-checkpoint miss ratio %g, want ~0.01 (cold only)", got)
	}
	// Without the checkpoint the warmup stream dominates.
	if got := p.MissRatio(8); got < 0.5 {
		t.Errorf("full-window ratio %g should include warmup misses", got)
	}
}

func TestAccessorCounts(t *testing.T) {
	p := NewStackProfiler(0)
	for i := 0; i < 10; i++ {
		p.Touch(uint64(i % 3))
	}
	if p.Accesses() != 10 {
		t.Fatalf("accesses %d", p.Accesses())
	}
	if p.DistinctBlocks() != 3 {
		t.Fatalf("distinct %d", p.DistinctBlocks())
	}
}

func TestMissCurveAt(t *testing.T) {
	c := MissCurve{Capacities: []int{64, 128, 256}, Ratios: []float64{0.8, 0.4, 0.1}}
	if !c.Valid() {
		t.Fatal("curve should be valid")
	}
	cases := []struct {
		cap  float64
		want float64
	}{
		{0, 0.8}, {64, 0.8}, {96, 0.6}, {128, 0.4}, {192, 0.25}, {256, 0.1}, {1e9, 0.1},
		{64.5, 0.8 - 0.4*0.5/64}, // regression: used to index [-1]
	}
	for _, tc := range cases {
		got := c.At(tc.cap)
		if diff := got - tc.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("At(%g) = %g, want %g", tc.cap, got, tc.want)
		}
	}
}

func TestMissCurveAtEmpty(t *testing.T) {
	var c MissCurve
	if c.At(100) != 0 {
		t.Fatal("empty curve should return 0")
	}
}

func TestMissCurveValidRejects(t *testing.T) {
	bad := []MissCurve{
		{Capacities: []int{1, 2}, Ratios: []float64{0.5}},      // length mismatch
		{Capacities: []int{2, 1}, Ratios: []float64{0.5, 0.4}}, // not ascending
		{Capacities: []int{1, 2}, Ratios: []float64{0.4, 0.5}}, // increasing ratio
		{Capacities: []int{1}, Ratios: []float64{1.5}},         // ratio > 1
		{Capacities: []int{1}, Ratios: []float64{-0.1}},        // ratio < 0
	}
	for i, c := range bad {
		if c.Valid() {
			t.Errorf("case %d: invalid curve accepted", i)
		}
	}
}

func TestMissRatioMonotonicProperty(t *testing.T) {
	// Property: for any reference stream, miss ratio is non-increasing in
	// capacity (LRU inclusion property).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewStackProfiler(0)
		for i := 0; i < 500; i++ {
			p.Touch(uint64(rng.Intn(100)))
		}
		prev := 1.1
		for c := 1; c <= 256; c *= 2 {
			r := p.MissRatio(c)
			if r > prev+1e-12 {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
