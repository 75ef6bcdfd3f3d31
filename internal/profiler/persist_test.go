package profiler

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/journal"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	src := source()
	orig := mustProfile(t, src, spec(t, "tonto"), config.Big)
	origSmall := mustProfile(t, src, spec(t, "mcf"), config.Small)

	var buf bytes.Buffer
	if err := src.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := NewSource(src.UopCount)
	n, err := fresh.LoadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("loaded %d profiles", n)
	}
	got := mustProfile(t, fresh, spec(t, "tonto"), config.Big)
	if !reflect.DeepEqual(*got, *orig) {
		t.Fatal("tonto profile did not survive the roundtrip")
	}
	gotSmall := mustProfile(t, fresh, spec(t, "mcf"), config.Small)
	if !reflect.DeepEqual(*gotSmall, *origSmall) {
		t.Fatal("mcf profile did not survive the roundtrip")
	}
	// Loaded profiles shadow measurement: the fresh source never simulated.
	if runs := fresh.measureRuns.Load(); runs != 0 {
		t.Fatalf("fresh source measured %d time(s) despite loaded profiles", runs)
	}
}

// TestSaveJSONFileAtomic covers the file path that cmd/profiler -save and
// -load take: SaveJSON bytes written by journal.WriteAtomic, read back by
// LoadJSON. A failed save must not touch existing content or leave temp
// files behind.
func TestSaveJSONFileAtomic(t *testing.T) {
	src := source()
	orig := mustProfile(t, src, spec(t, "tonto"), config.Big)
	var buf bytes.Buffer
	if err := src.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "profiles.json")
	if err := journal.WriteAtomic(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := journal.WriteAtomic(filepath.Join(dir, "nosuchdir", "p.json"), buf.Bytes()); err == nil {
		t.Fatal("save into missing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "profiles.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after saves: %v", names)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fresh := NewSource(src.UopCount)
	if _, err := fresh.LoadJSON(f); err != nil {
		t.Fatal(err)
	}
	got := mustProfile(t, fresh, spec(t, "tonto"), config.Big)
	if !reflect.DeepEqual(*got, *orig) {
		t.Fatal("profile did not survive the file roundtrip")
	}
}

// TestLoadRejectsFidelityMismatch: a profile file records the windows it
// was measured over, and a source measuring other windows must refuse it
// rather than serve another fidelity's profiles under its own label.
func TestLoadRejectsFidelityMismatch(t *testing.T) {
	src := source()
	mustProfile(t, src, spec(t, "tonto"), config.Big)
	var buf bytes.Buffer
	if err := src.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}

	other := NewSource(2 * src.UopCount)
	n, err := other.LoadJSON(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatalf("loaded %d profiles measured at %d µops into a %d-µop source", n, src.UopCount, other.UopCount)
	}
	for _, want := range []string{"60000 µops", "120000 µops"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if n != 0 || other.profiles.Len() != 0 {
		t.Fatalf("mismatched load left %d profile(s) behind", other.profiles.Len())
	}

	// A different warmup over the same measured window is another fidelity too.
	warm := NewSource(src.UopCount)
	warm.Warmup = src.Warmup / 2
	if _, err := warm.LoadJSON(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("profiles with a different warmup accepted")
	}
}

// TestLoadRejectsBenchmarkMismatch: an entry's key names the benchmark its
// profile answers for, so a body measured on another benchmark is refused
// rather than served under the key's name.
func TestLoadRejectsBenchmarkMismatch(t *testing.T) {
	src := NewSource(goldenUops)
	mustProfile(t, src, spec(t, "gcc"), config.Small)
	var buf bytes.Buffer
	if err := src.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file profileFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Profiles) != 1 {
		t.Fatalf("saved %d profiles, want gcc/small alone", len(file.Profiles))
	}
	file.Profiles[0].Benchmark = "mcf"
	doc, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewSource(goldenUops)
	n, err := fresh.LoadJSON(bytes.NewReader(doc))
	if err == nil {
		p, _ := fresh.profiles.Cached(profileKey{bench: "mcf", core: config.Small})
		t.Fatalf("loaded %d profile(s): the mcf/small entry serves a %s profile", n, p.Benchmark)
	}
	for _, want := range []string{"mcf", "gcc"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if n != 0 || fresh.profiles.Len() != 0 {
		t.Fatalf("mismatched load left %d profile(s) behind", fresh.profiles.Len())
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	s := NewSource(1)
	if _, err := s.LoadJSON(strings.NewReader(`{"version":99,"uop_count":1,"warmup":2,"profiles":[]}`)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	s := NewSource(1)
	if _, err := s.LoadJSON(strings.NewReader(`{"version":1,`)); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := s.LoadJSON(strings.NewReader(
		`{"version":1,"uop_count":1,"warmup":2,"profiles":[{"benchmark":"x","core":"giant","profile":{}}]}`)); err == nil {
		t.Fatal("unknown core type accepted")
	}
	if _, err := s.LoadJSON(strings.NewReader(
		`{"version":1,"uop_count":1,"warmup":2,"profiles":[{"benchmark":"x","core":"big","profile":{}}]}`)); err == nil {
		t.Fatal("invalid profile body accepted")
	}
}
