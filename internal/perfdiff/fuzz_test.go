package perfdiff_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"smtflex/internal/perfdiff"
)

// FuzzReadAuto fuzzes the snapshot reader cmd/perfdiff calls on both of its
// inputs, past the file read: ReadAuto must never panic, an accepted
// document must diff against itself without error, and it must re-marshal
// to bytes that read back and re-marshal identically.
func FuzzReadAuto(f *testing.F) {
	locked, err := json.Marshal(lockedSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	for _, doc := range []string{string(locked), benchDoc, wrongSchemaDoc, garbageDoc, shortCumulativeDoc} {
		f.Add([]byte(doc))
	}
	f.Add(locked[:len(locked)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := perfdiff.DecodeAuto(data, "fuzz input")
		if err != nil {
			return
		}
		if _, err := perfdiff.Diff(s, s, perfdiff.DefaultThresholds()); err != nil {
			t.Fatalf("diffing an accepted document against itself: %v", err)
		}
		first, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("re-marshalling an accepted document: %v", err)
		}
		again, err := perfdiff.DecodeAuto(first, "re-marshalled input")
		if err != nil {
			t.Fatalf("reading a re-marshalled document: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-marshal is not stable:\nfirst  %s\nsecond %s", first, second)
		}
	})
}
