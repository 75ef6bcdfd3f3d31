package profiler

import (
	"bytes"
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/workload"
)

// FuzzLoadJSON feeds LoadJSON arbitrary documents, seeded with a SaveJSON
// document of three goldenUops profiles and truncations of it. LoadJSON must
// never panic, and a document it accepts must re-save to bytes that load
// again and re-save identically.
func FuzzLoadJSON(f *testing.F) {
	src := NewSource(goldenUops)
	for _, m := range []struct {
		bench string
		core  config.CoreType
	}{{"mcf", config.Big}, {"gcc", config.Medium}, {"tonto", config.Small}} {
		sp, err := workload.ByName(m.bench)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := src.Profile(sp, m.core); err != nil {
			f.Fatal(err)
		}
	}
	var doc bytes.Buffer
	if err := src.SaveJSON(&doc); err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	for _, n := range []int{0, 1, doc.Len() / 3, doc.Len() / 2, doc.Len() - 2} {
		f.Add(doc.Bytes()[:n])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewSource(goldenUops)
		if _, err := s.LoadJSON(bytes.NewReader(data)); err != nil {
			return
		}
		var first bytes.Buffer
		if err := s.SaveJSON(&first); err != nil {
			t.Fatalf("re-saving an accepted document: %v", err)
		}
		again := NewSource(goldenUops)
		if _, err := again.LoadJSON(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("loading a re-saved document: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.SaveJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-save is not stable:\nfirst  %s\nsecond %s", first.Bytes(), second.Bytes())
		}
	})
}
