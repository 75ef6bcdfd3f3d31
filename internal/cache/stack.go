package cache

import (
	"math"
	"math/bits"
	"sort"
)

// StackProfiler computes LRU stack distances (Mattson's algorithm) over a
// block-address reference stream. One pass yields the miss ratio of every
// power-of-two fully-associative LRU cache size simultaneously, which the
// interval engine turns into a miss-rate-versus-capacity curve for modelling
// cache capacity contention.
//
// Distances are recorded in power-of-two buckets: bucket b counts accesses
// with stack distance d where bits.Len(d) == b, so the miss ratio at any
// power-of-two capacity is exact. Each block's latest access timestamp is
// marked in a Fenwick tree (binary indexed tree) over access times, so a
// touch counts the distinct blocks touched since the previous access to
// its block in O(log n) time, n the number of accesses so far.
type StackProfiler struct {
	last  map[uint64]uint64 // block -> timestamp of previous access
	live  fenwick           // 1 at each block's latest access timestamp
	clock uint64
	// hist[b] counts accesses whose stack distance d has bits.Len64(d)==b.
	hist [65]uint64
	// cold counts first-touch accesses (infinite distance).
	cold uint64
	// total counts all accesses.
	total uint64
}

// NewStackProfiler returns an empty profiler. The argument is retained for
// compatibility and ignored; bucketing makes the resolution unbounded.
func NewStackProfiler(int) *StackProfiler {
	return &StackProfiler{last: make(map[uint64]uint64), live: newFenwick(1 << 10)}
}

// Touch records an access to block (a block-aligned address or block id).
func (p *StackProfiler) Touch(block uint64) {
	p.clock++
	p.total++
	if p.clock > p.live.size() {
		p.live.grow(uint64(len(p.last)))
	}
	prev, seen := p.last[block]
	if seen {
		// Stack distance = number of distinct blocks touched since prev:
		// the live timestamps after prev.
		d := uint64(len(p.last)) - p.live.prefix(prev)
		p.hist[bits.Len64(d)]++
		p.live.add(prev, -1)
	} else {
		p.cold++
	}
	p.live.add(p.clock, 1)
	p.last[block] = p.clock
}

// fenwick is a binary indexed tree of counts over timestamps 1..size, with
// size a power of two. t[i] holds the sum over (i - lowbit(i), i].
type fenwick struct{ t []int32 }

func newFenwick(size int) fenwick { return fenwick{t: make([]int32, size+1)} }

func (f *fenwick) size() uint64 { return uint64(len(f.t) - 1) }

// add adds delta at timestamp i.
func (f *fenwick) add(i uint64, delta int32) {
	for ; i < uint64(len(f.t)); i += i & -i {
		f.t[i] += delta
	}
}

// prefix returns the count over timestamps 1..i.
func (f *fenwick) prefix(i uint64) uint64 {
	var sum int32
	for ; i > 0; i -= i & -i {
		sum += f.t[i]
	}
	return uint64(sum)
}

// grow doubles the tree, whose counts sum to total. A node's range does not
// depend on the tree's size, so the old nodes keep their sums, the new
// nodes below the top cover only empty future timestamps, and the new top
// node covers everything.
func (f *fenwick) grow(total uint64) {
	n := len(f.t) - 1
	t := make([]int32, 2*n+1)
	copy(t, f.t)
	t[2*n] = int32(total)
	f.t = t
}

// Accesses returns the total number of touches recorded.
func (p *StackProfiler) Accesses() uint64 { return p.total }

// DistinctBlocks returns the number of distinct blocks seen.
func (p *StackProfiler) DistinctBlocks() int { return len(p.last) }

// Snapshot captures the profiler's counters so a later window can be
// measured as a delta (used to exclude warmup).
type Snapshot struct {
	hist  [65]uint64
	cold  uint64
	total uint64
}

// Checkpoint returns the current counters.
func (p *StackProfiler) Checkpoint() Snapshot {
	return Snapshot{hist: p.hist, cold: p.cold, total: p.total}
}

// MissRatio returns the fraction of accesses that miss in a fully
// associative LRU cache of the given capacity in blocks. Capacities are
// rounded down to a power of two (the bucket resolution).
func (p *StackProfiler) MissRatio(capacityBlocks int) float64 {
	return p.MissRatioSince(Snapshot{}, capacityBlocks)
}

// MissRatioSince is MissRatio restricted to the accesses recorded after the
// snapshot was taken.
func (p *StackProfiler) MissRatioSince(s Snapshot, capacityBlocks int) float64 {
	total := p.total - s.total
	if total == 0 {
		return 0
	}
	// A capacity of c blocks hits all accesses with distance d < c. With
	// power-of-two c, those are exactly buckets 0..log2(c).
	maxHitBucket := -1
	if capacityBlocks >= 1 {
		maxHitBucket = bits.Len64(uint64(capacityBlocks)) - 1
	}
	misses := p.cold - s.cold
	for b := maxHitBucket + 1; b < len(p.hist); b++ {
		misses += p.hist[b] - s.hist[b]
	}
	return float64(misses) / float64(total)
}

// MissRatioCurve samples the miss ratio at each capacity (in blocks) in
// caps for accesses after snapshot s, and returns a piecewise-linear curve.
func (p *StackProfiler) MissRatioCurve(s Snapshot, caps []int) MissCurve {
	sorted := append([]int(nil), caps...)
	sort.Ints(sorted)
	curve := MissCurve{Capacities: sorted, Ratios: make([]float64, len(sorted))}
	for i, c := range sorted {
		curve.Ratios[i] = p.MissRatioSince(s, c)
	}
	return curve
}

// MissCurve is a piecewise-linear miss-ratio-versus-capacity curve.
// Capacities are in cache blocks, ascending.
type MissCurve struct {
	Capacities []int
	Ratios     []float64
}

// At interpolates the miss ratio at the given capacity in blocks. Outside
// the sampled range it clamps to the end values; an empty curve returns 0. A
// NaN capacity yields NaN rather than a panic, so corrupted state reaches
// the contention solver's divergence detection instead of unwinding the
// stack.
func (c MissCurve) At(capacityBlocks float64) float64 {
	n := len(c.Capacities)
	if n == 0 {
		return 0
	}
	if math.IsNaN(capacityBlocks) {
		return math.NaN()
	}
	if capacityBlocks <= float64(c.Capacities[0]) {
		return c.Ratios[0]
	}
	if capacityBlocks >= float64(c.Capacities[n-1]) {
		return c.Ratios[n-1]
	}
	i := sort.Search(n, func(j int) bool { return float64(c.Capacities[j]) >= capacityBlocks })
	if i == 0 {
		return c.Ratios[0]
	}
	// c.Capacities[i-1] < capacityBlocks <= c.Capacities[i]
	lo, hi := float64(c.Capacities[i-1]), float64(c.Capacities[i])
	f := (capacityBlocks - lo) / (hi - lo)
	return c.Ratios[i-1] + f*(c.Ratios[i]-c.Ratios[i-1])
}

// Valid reports whether the curve is well formed: same lengths, ascending
// capacities, ratios within [0,1] and non-increasing.
func (c MissCurve) Valid() bool {
	if len(c.Capacities) != len(c.Ratios) {
		return false
	}
	for i := range c.Capacities {
		if c.Ratios[i] < 0 || c.Ratios[i] > 1 {
			return false
		}
		if i > 0 {
			if c.Capacities[i] <= c.Capacities[i-1] {
				return false
			}
			if c.Ratios[i] > c.Ratios[i-1]+1e-12 {
				return false
			}
		}
	}
	return true
}
