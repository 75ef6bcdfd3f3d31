package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const fp = "uops=60000|mixes=2|seed=2014|model={}"

// key derives a valid lowercase-hex-looking record key per index.
func key(i int) string {
	return fmt.Sprintf("%064x", i+1)
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, n, err := Open(dir, fp)
	if err != nil || n != 0 {
		t.Fatalf("fresh open: n=%d err=%v", n, err)
	}
	payloads := map[string]string{
		key(0): `{"stp":0.1}`,
		key(1): `{"stp":0.30000000000000004}`,
		key(2): `{"stp":1e300,"threads":[{"ipc":0.3333333333333333}]}`,
	}
	for k, p := range payloads {
		if err := j.Put(k, []byte(p)); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	if j.Len() != 3 {
		t.Fatalf("Len = %d, want 3", j.Len())
	}

	// Reopen and replay: every payload must come back byte-exact.
	j2, n, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("reopen: n=%d, want 3", n)
	}
	got := map[string]string{}
	replayed, dropped, err := j2.Replay(func(k string, payload []byte) {
		got[k] = string(payload)
	})
	if err != nil || dropped != 0 {
		t.Fatalf("Replay: replayed=%d dropped=%d err=%v", replayed, dropped, err)
	}
	if replayed != 3 {
		t.Fatalf("replayed %d records, want 3", replayed)
	}
	for k, want := range payloads {
		if got[k] != want {
			t.Errorf("payload for %s = %q, want %q", k, got[k], want)
		}
	}
}

func TestJournalPutOverwritesSameKey(t *testing.T) {
	j, _, err := Open(t.TempDir(), fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put(key(0), []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Put(key(0), []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", j.Len())
	}
	var got string
	if _, _, err := j.Replay(func(_ string, p []byte) { got = string(p) }); err != nil {
		t.Fatal(err)
	}
	if got != `{"v":2}` {
		t.Fatalf("replayed %q, want the overwritten payload", got)
	}
}

func TestJournalFingerprintMismatchWipes(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put(key(0), []byte(`{"stp":1}`)); err != nil {
		t.Fatal(err)
	}

	j2, n, err := Open(dir, "uops=999|other")
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || j2.Len() != 0 {
		t.Fatalf("stale journal resumed under a different fingerprint (n=%d)", n)
	}
	// The wiped journal must be usable and must not resurrect old records.
	if err := j2.Put(key(1), []byte(`{"stp":2}`)); err != nil {
		t.Fatal(err)
	}
	count := 0
	if _, _, err := j2.Replay(func(string, []byte) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("replayed %d records after wipe, want 1", count)
	}
}

func TestJournalCorruptRecordsDropped(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put(key(0), []byte(`{"good":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Put(key(1), []byte(`{"tampered":true}`)); err != nil {
		t.Fatal(err)
	}

	cells := filepath.Join(dir, "cells")
	// Torn record: truncated JSON.
	if err := os.WriteFile(filepath.Join(cells, key(2)+".json"), []byte(`{"version":1,`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Tampered payload: flip one digit so the stored digest no longer matches.
	tamperPath := filepath.Join(cells, key(1)+".json")
	b, err := os.ReadFile(tamperPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(b), `{"tampered":true}`, `{"tampered":false}`, 1)
	if tampered == string(b) {
		t.Fatal("test setup: payload not found in record")
	}
	if err := os.WriteFile(tamperPath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	// Renamed record: filename disagrees with the embedded key.
	good, err := os.ReadFile(filepath.Join(cells, key(0)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cells, key(3)+".json"), good, 0o644); err != nil {
		t.Fatal(err)
	}

	var keys []string
	replayed, dropped, err := j.Replay(func(k string, _ []byte) { keys = append(keys, k) })
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 1 || dropped != 3 {
		t.Fatalf("replayed=%d dropped=%d, want 1 and 3", replayed, dropped)
	}
	if len(keys) != 1 || keys[0] != key(0) {
		t.Fatalf("replayed keys %v, want only the intact record", keys)
	}
	if j.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", j.Dropped())
	}
}

func TestJournalRejectsUnsafeKeys(t *testing.T) {
	j, _, err := Open(t.TempDir(), fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../../etc/passwd", "a/b", "UPPER", strings.Repeat("f", 200), "sp ace"} {
		if err := j.Put(bad, []byte(`{}`)); err == nil {
			t.Errorf("Put(%q) accepted, want error", bad)
		}
	}
}

func TestJournalAtomicNoTempResidue(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Put(key(i), []byte(`{"i":`+fmt.Sprint(i)+`}`)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "cells"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp residue left behind: %s", e.Name())
		}
	}
	if len(entries) != 4 {
		t.Errorf("cells dir holds %d entries, want 4", len(entries))
	}
}

// TestJournalConcurrentPuts exercises the many-dispatchers shape under the
// race detector: distinct keys from concurrent goroutines must all land.
func TestJournalConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Put(key(i), []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
				t.Errorf("Put: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if j.Len() != n {
		t.Fatalf("Len = %d, want %d", j.Len(), n)
	}
	replayed, dropped, err := j.Replay(func(k string, p []byte) {
		var v struct {
			I int `json:"i"`
		}
		if err := json.Unmarshal(p, &v); err != nil {
			t.Errorf("bad payload for %s: %v", k, err)
		}
	})
	if err != nil || dropped != 0 || replayed != n {
		t.Fatalf("Replay: replayed=%d dropped=%d err=%v", replayed, dropped, err)
	}
}

// TestJournalIndentedPayloadReplays: a payload written by a JSON encoder
// (indented, trailing newline) is embedded compacted, and must still pass
// its digest on replay instead of being dropped as corrupt.
func TestJournalIndentedPayloadReplays(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put("profiles", []byte("{\n \"uop_count\": 4000,\n \"name\": \"<a&b>\"\n}\n")); err != nil {
		t.Fatal(err)
	}
	if err := j.Put("bad", []byte("{\"torn\":")); err == nil {
		t.Fatal("Put accepted a payload that is not JSON")
	}
	j2, _, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	replayed, dropped, err := j2.Replay(func(_ string, p []byte) { got = string(p) })
	if err != nil || replayed != 1 || dropped != 0 {
		t.Fatalf("Replay: replayed=%d dropped=%d err=%v", replayed, dropped, err)
	}
	var v struct {
		UopCount int    `json:"uop_count"`
		Name     string `json:"name"`
	}
	if err := json.Unmarshal([]byte(got), &v); err != nil || v.UopCount != 4000 || v.Name != "<a&b>" {
		t.Fatalf("replayed %q (%+v, %v)", got, v, err)
	}
}

// TestWriteAtomicMissingDirFails: a write into a directory that does not
// exist fails without touching anything, and successful writes leave only
// their destination behind — no temp residue either way.
func TestWriteAtomicMissingDirFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profiles.json")
	if err := WriteAtomic(path, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(path, []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(filepath.Join(dir, "nosuchdir", "p.json"), []byte(`{}`)); err == nil {
		t.Fatal("write into missing directory succeeded")
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
		t.Fatalf("directory not clean after writes: %v", names)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != `{"v":2}` {
		t.Fatalf("destination holds %q (%v), want the last write", b, err)
	}
}
