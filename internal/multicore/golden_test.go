package multicore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"smtflex/internal/cache"
	"smtflex/internal/config"
	"smtflex/internal/cpu"
	"smtflex/internal/trace"
	"smtflex/internal/workload"
)

// chipStatsGoldenSHA256 was taken on amd64 from the cycle engine while it
// still had a context-deactivation path, which this run does not take; the
// engine without that path gives the same hash.
const chipStatsGoldenSHA256 = "16494d7c561c3588d7470505c4eef44fd9292bd0d2b0e7cbb722cbba8257423e"

// TestChipStatsGolden pins every bit of the multi-thread cycle engine, the
// path smtsim and the cross-check take and the profile goldens (one-thread
// chips only) never reach. Each of the nine designs, with SMT on and off,
// gets every hardware context filled and runs to a warm target, then on to
// the final one. Every third thread replays a recording shorter than the
// run, so both µop sources and a recording's continuation are covered. The
// hash covers each thread's ThreadStats, each core's private cache stats
// and the LLC and DRAM stats.
func TestChipStatsGolden(t *testing.T) {
	const warm, target, recorded = 1_000, 2_000, 1_500
	benches := workload.Benchmarks()
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, smt := range []bool{false, true} {
		for _, d := range config.NineDesigns(smt) {
			chip, err := New(d, cpu.Ideal{})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for ci, cc := range d.Cores {
				contexts := 1
				if smt {
					contexts = cc.SMTContexts
				}
				for k := 0; k < contexts; k++ {
					sp := benches[n%len(benches)]
					var r trace.Reader
					if n%3 == 0 {
						rec, err := trace.Record(sp, uint64(n)+1, recorded)
						if err != nil {
							t.Fatal(err)
						}
						r = rec.Reader()
					} else {
						g, err := trace.NewGenerator(sp, uint64(n)+1)
						if err != nil {
							t.Fatal(err)
						}
						r = trace.OffsetAddresses(g, uint64(n)<<40)
					}
					if _, err := chip.AttachThread(ci, r); err != nil {
						t.Fatal(err)
					}
					n++
				}
			}
			chip.Run(warm)
			for _, st := range chip.Run(target) {
				put(st)
			}
			for i := range d.Cores {
				l1i, l1d, l2 := chip.CoreCacheStats(i)
				put([]cache.Stats{l1i, l1d, l2})
			}
			put(chip.LLCStats())
			put(chip.DRAMStats())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != chipStatsGoldenSHA256 {
		t.Fatalf("chip stats changed: SHA-256 %s, want %s", got, chipStatsGoldenSHA256)
	}
}
