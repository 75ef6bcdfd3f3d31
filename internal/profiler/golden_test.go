package profiler

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/workload"
)

// goldenUops is the fidelity of the full golden profile set: small enough to
// measure all 36 profiles in about a second, long enough that every
// idealization run, the curve pass and the calibration contribute bits.
const goldenUops = 4_000

// TestProfileBytesGolden pins the SHA-256 of SaveJSON after measuring a set
// of (benchmark, core type) profiles, so any speed-up of the profiler must
// leave the persisted bytes unchanged; a deliberate change to what is
// measured updates a constant and says why. Both constants were taken on
// amd64, the 4k one from the engine before the profiler replayed recorded
// traces and counted stack distances with a Fenwick tree.
//
// No profile writes a line back to DRAM at 4k µops, so the full set pins no
// bit of the writeback calibration. At the 200k default only mcf and omnetpp
// do (dirty L1D and L2 evictions never reach the LLC; see ROADMAP item 5),
// so the second case measures exactly those and requires every fraction to
// be non-zero.
func TestProfileBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		uops    uint64
		benches []string // nil measures all twelve
		sha256  string
		// writeback requires a non-zero WritebackFraction on every profile.
		writeback bool
	}{
		{"all-4k", goldenUops, nil, "c48c9536feeac4f26a0dff956ec714dd0b486e166491f3766f9c98d8bd9f4dc2", false},
		{"writeback-200k", 200_000, []string{"mcf", "omnetpp"}, "193d25f1ccff05dd90da1c62827996eea04ae1d3d4b80e5c68e4e7f55fb7c2ce", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSource(tc.uops)
			for _, sp := range workload.Benchmarks() {
				if tc.benches != nil && !slices.Contains(tc.benches, sp.Name) {
					continue
				}
				for ct := config.CoreType(0); ct < config.NumCoreTypes; ct++ {
					p, err := s.Profile(sp, ct)
					if err != nil {
						t.Fatalf("%s on %s: %v", sp.Name, ct, err)
					}
					if tc.writeback && p.WritebackFraction <= 0 {
						t.Errorf("%s on %s: WritebackFraction %g, want > 0", sp.Name, ct, p.WritebackFraction)
					}
				}
			}
			var buf bytes.Buffer
			if err := s.SaveJSON(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
				t.Fatalf("profile bytes changed: SaveJSON SHA-256 %s, want %s", got, tc.sha256)
			}
		})
	}
}
