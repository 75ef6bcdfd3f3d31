package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/profiler"
	"smtflex/internal/workload"
)

// goldenPlaceSHA256 is the SHA-256 over Place's CoreOf on the golden grid
// (nine designs × SMT on/off × n ∈ {1, 2, 3, 5, 8, 12, 17, 24} × one
// homogeneous and one heterogeneous mix, 4k-µop profiles), taken on amd64
// from the scheduler as it stood before its per-thread maps became
// core-type-indexed tables with memoized estimates. Place must keep making
// exactly these choices; a deliberate policy change updates this constant
// and says why.
const goldenPlaceSHA256 = "3fa2a3d8bfc2474fa2eb14bc08cbcb3f8a40af9dc6a7ebd1a44a7606e52191fc"

func TestPlaceGolden(t *testing.T) {
	src := profiler.NewSource(4_000)
	names := workload.Names()
	h := sha256.New()
	var b [8]byte
	for _, smt := range []bool{true, false} {
		for di, d := range config.NineDesigns(smt) {
			for _, n := range []int{1, 2, 3, 5, 8, 12, 17, 24} {
				homog := homogMix(names[(di+n)%len(names)], n)
				heterog := workload.HeterogeneousMixes(n, 1, 42)[0]
				for _, m := range []workload.Mix{homog, heterog} {
					p, err := Place(d, m, src)
					if err != nil {
						t.Fatalf("%s n=%d: %v", d.Name, n, err)
					}
					for i, c := range p.CoreOf {
						if p.Profiles[i].Core != d.Cores[c].Type {
							t.Fatalf("%s n=%d: thread %d has a %v profile on a %v core",
								d.Name, n, i, p.Profiles[i].Core, d.Cores[c].Type)
						}
						binary.LittleEndian.PutUint64(b[:], uint64(c))
						h.Write(b[:])
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenPlaceSHA256 {
		t.Fatalf("placements changed: SHA-256 %s, want %s", got, goldenPlaceSHA256)
	}
}
