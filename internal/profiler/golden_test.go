package profiler

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/workload"
)

// goldenUops is the fidelity of the golden profile set: small enough to
// measure all 36 profiles in about a second, long enough that every
// idealization run, the curve pass and the calibration contribute bits.
const goldenUops = 4_000

// goldenProfilesSHA256 is the SHA-256 of SaveJSON after measuring every
// (benchmark, core type) profile at goldenUops, taken from the engine
// before the profiler replayed recorded traces and counted stack distances
// with a Fenwick tree (amd64). Any speed-up of the profiler must leave the
// persisted bytes unchanged; a deliberate change to what is measured
// updates this constant and says why.
const goldenProfilesSHA256 = "c48c9536feeac4f26a0dff956ec714dd0b486e166491f3766f9c98d8bd9f4dc2"

func TestProfileBytesGolden(t *testing.T) {
	s := NewSource(goldenUops)
	for _, sp := range workload.Benchmarks() {
		for ct := config.CoreType(0); ct < config.NumCoreTypes; ct++ {
			if _, err := s.Profile(sp, ct); err != nil {
				t.Fatalf("%s on %s: %v", sp.Name, ct, err)
			}
		}
	}
	var buf bytes.Buffer
	if err := s.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenProfilesSHA256 {
		t.Fatalf("profile bytes changed: SaveJSON SHA-256 %s, want %s", got, goldenProfilesSHA256)
	}
}
