package trace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"smtflex/internal/isa"
	"smtflex/internal/trace"
	"smtflex/internal/workload"
)

// streamGoldenUops is how many µops of each benchmark the stream golden
// hashes; streamGoldenPast of them lie past a recording's end.
const (
	streamGoldenUops = 50_000
	streamGoldenPast = 1_000
)

// streamGoldenSHA256 is the SHA-256 of every field of the first
// streamGoldenUops µops of all twelve benchmarks under the profiler's seed,
// taken on amd64 from the generator before its samplers compared integer
// thresholds.
const streamGoldenSHA256 = "715ded59da25bae1592688b4490eda018fb722e130eea1294d9a6c3d22ac5070"

// hashUop appends every field of u to h.
func hashUop(h hash.Hash, u isa.Uop) {
	var b [40]byte
	b[0] = byte(u.Class)
	binary.LittleEndian.PutUint32(b[1:], uint32(u.SrcDist[0]))
	binary.LittleEndian.PutUint32(b[5:], uint32(u.SrcDist[1]))
	binary.LittleEndian.PutUint64(b[9:], u.Addr)
	if u.Taken {
		b[17] = 1
	}
	if u.Mispredict {
		b[18] = 1
	}
	binary.LittleEndian.PutUint64(b[19:], u.PC)
	h.Write(b[:27])
}

// TestStreamGolden pins the µop stream every profile is measured on, through
// each path that produces it: the generator, the replay of a recording that
// ends streamGoldenPast µops early, and the curve pass's Recorder, both what
// it yields and the replay of what it records. A generator rewrite that
// moves one bit fails here rather than in the profile goldens three
// packages away.
func TestStreamGolden(t *testing.T) {
	const seed = 0xF00D // the profiler's seed
	paths := map[string]func(trace.Spec) (func() isa.Uop, error){
		"generator": func(sp trace.Spec) (func() isa.Uop, error) {
			g, err := trace.NewGenerator(sp, seed)
			if err != nil {
				return nil, err
			}
			return g.Next, nil
		},
		"replay": func(sp trace.Spec) (func() isa.Uop, error) {
			rec, err := trace.Record(sp, seed, streamGoldenUops-streamGoldenPast)
			if err != nil {
				return nil, err
			}
			return rec.Reader().Next, nil
		},
		// The curve pass reads its stream through a Recorder, and the
		// profile that triggered the pass replays what it recorded.
		"recorder": func(sp trace.Spec) (func() isa.Uop, error) {
			r, err := trace.NewRecorder(sp, seed, streamGoldenUops-streamGoldenPast)
			if err != nil {
				return nil, err
			}
			return r.Next, nil
		},
		"recorder-replay": func(sp trace.Spec) (func() isa.Uop, error) {
			r, err := trace.NewRecorder(sp, seed, streamGoldenUops-streamGoldenPast)
			if err != nil {
				return nil, err
			}
			for r.Recording() == nil {
				r.Next()
			}
			return r.Recording().Reader().Next, nil
		},
	}
	for name, open := range paths {
		h := sha256.New()
		for _, sp := range workload.Benchmarks() {
			next, err := open(sp)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, sp.Name, err)
			}
			for i := 0; i < streamGoldenUops; i++ {
				hashUop(h, next())
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != streamGoldenSHA256 {
			t.Errorf("%s: stream SHA-256 %s, want %s", name, got, streamGoldenSHA256)
		}
	}
}
