// Package journal is a write-ahead journal of completed sweep cells: the
// durability half of the cluster fabric's crash-recovery story. A
// coordinator appends one record per completed cell; a coordinator that is
// kill -9'd mid-sweep reopens the journal on restart, replays the finished
// cells into its result store, and re-dispatches only the remainder —
// producing tables byte-identical to an uninterrupted run, because replayed
// cells feed the exact wire payload the original dispatch produced.
//
// The format is one file per record in a flat directory:
//
//	<dir>/meta.json          {"version":1,"fingerprint":"..."}
//	<dir>/cells/<key>.json   {"version":1,"key":"...","digest":"...","payload":{...}}
//
// Every write follows the checkpoint package's crash-safety discipline:
// temp file in the destination directory, fsync, atomic rename. A crash
// mid-write leaves at worst an orphaned temp file, never a torn record.
// Records carry a SHA-256 digest of their payload bytes, so a record
// corrupted at rest (disk fault, manual tampering) is detected and dropped
// on replay instead of poisoning a resumed table.
//
// Like internal/checkpoint, the journal is fingerprint-guarded: opening a
// journal written under a different engine fingerprint wipes it, because
// cells from a differently configured engine must never be replayed into
// this one's tables.
package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const version = 1

// meta is the journal's identity file: a journal belongs to one engine
// fingerprint, and replaying across fingerprints is forbidden.
type meta struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// record is one journaled cell on disk.
type record struct {
	Version int `json:"version"`
	// Key is the cell's content address (echoed in the filename).
	Key string `json:"key"`
	// Digest is the SHA-256 hex of Payload's exact bytes; replay drops
	// records whose payload no longer matches.
	Digest  string          `json:"digest"`
	Payload json.RawMessage `json:"payload"`
}

// Journal is an open cell journal. It is safe for concurrent Put calls:
// records land in distinct files via unique temp names and atomic renames.
type Journal struct {
	dir   string
	cells string

	mu      sync.Mutex
	n       int   // records currently on disk (valid at last Open/Replay + Puts since)
	errs    int64 // Put failures observed by the owner (informational)
	dropped int   // records dropped by the last Replay (corrupt/foreign)
}

// Open opens (or creates) the journal at dir for the given engine
// fingerprint. An existing journal written under a different fingerprint is
// wiped: its cells are not comparable and must not be replayed. It returns
// the journal and the number of records present.
func Open(dir, fingerprint string) (*Journal, int, error) {
	cells := filepath.Join(dir, "cells")
	if err := os.MkdirAll(cells, 0o755); err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	metaPath := filepath.Join(dir, "meta.json")
	prev, err := os.ReadFile(metaPath)
	fresh := errors.Is(err, os.ErrNotExist)
	if err != nil && !fresh {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	if !fresh {
		var m meta
		if json.Unmarshal(prev, &m) != nil || m.Version != version || m.Fingerprint != fingerprint {
			// Parameters changed (or the meta file is torn): the journaled
			// cells are not comparable, so wipe and start over.
			if err := os.RemoveAll(cells); err != nil {
				return nil, 0, fmt.Errorf("journal: wiping stale journal: %w", err)
			}
			if err := os.MkdirAll(cells, 0o755); err != nil {
				return nil, 0, fmt.Errorf("journal: %w", err)
			}
			fresh = true
		}
	}
	if fresh {
		b, err := json.Marshal(meta{Version: version, Fingerprint: fingerprint})
		if err != nil {
			return nil, 0, fmt.Errorf("journal: %w", err)
		}
		if err := WriteAtomic(metaPath, b); err != nil {
			return nil, 0, err
		}
	}
	j := &Journal{dir: dir, cells: cells}
	names, err := j.recordNames()
	if err != nil {
		return nil, 0, err
	}
	j.n = len(names)
	return j, j.n, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// Len reports the number of records on disk (as of the last Open or Replay,
// plus successful Puts since).
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Dropped reports how many records the last Replay discarded as corrupt.
func (j *Journal) Dropped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// validKey reports whether key is safe to use verbatim as a filename. The
// cluster layer's keys are lowercase-hex SHA-256 content addresses, which
// pass trivially; anything else is rejected rather than escaped, keeping
// the on-disk mapping bijective.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'z') && c != '-' {
			return false
		}
	}
	return true
}

// Put appends (or overwrites) the record for key with the given payload
// bytes, crash-safely. The payload must be the exact bytes the caller will
// want back from Replay.
func (j *Journal) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("journal: invalid record key %q (want a lowercase-hex content address)", key)
	}
	rec := record{
		Version: version,
		Key:     key,
		Digest:  digestOf(payload),
		Payload: json.RawMessage(payload),
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(j.cells, key+".json")
	existed := false
	if _, err := os.Stat(path); err == nil {
		existed = true
	}
	if err := WriteAtomic(path, b); err != nil {
		j.mu.Lock()
		j.errs++
		j.mu.Unlock()
		return err
	}
	j.mu.Lock()
	if !existed {
		j.n++
	}
	j.mu.Unlock()
	return nil
}

// Replay calls fn for every valid record, in deterministic (key-sorted)
// order, and returns how many records were replayed and how many were
// dropped as corrupt — torn JSON, a filename/key mismatch, or a payload
// that no longer matches its digest. Corrupt records are skipped, not
// deleted: a later Put for the same key overwrites them.
func (j *Journal) Replay(fn func(key string, payload []byte)) (replayed, dropped int, err error) {
	names, err := j.recordNames()
	if err != nil {
		return 0, 0, err
	}
	sort.Strings(names)
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(j.cells, name))
		if err != nil {
			dropped++
			continue
		}
		var rec record
		key := strings.TrimSuffix(name, ".json")
		if json.Unmarshal(b, &rec) != nil || rec.Version != version || rec.Key != key ||
			rec.Digest != digestOf(rec.Payload) {
			dropped++
			continue
		}
		fn(rec.Key, rec.Payload)
		replayed++
	}
	j.mu.Lock()
	j.n = replayed
	j.dropped = dropped
	j.mu.Unlock()
	return replayed, dropped, nil
}

// recordNames lists the record filenames currently on disk, skipping temp
// residue from interrupted writes.
func (j *Journal) recordNames() ([]string, error) {
	entries, err := os.ReadDir(j.cells)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") || strings.Contains(e.Name(), ".tmp-") {
			continue
		}
		names = append(names, e.Name())
	}
	return names, nil
}

// digestOf is the record-level integrity hash: SHA-256 hex of the payload
// bytes exactly as stored.
func digestOf(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// WriteAtomic writes b to path via temp file + fsync + rename, the same
// crash-safety discipline as internal/checkpoint; flight and perf dumps too.
func WriteAtomic(path string, b []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("journal: saving: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(b); err != nil {
		return fmt.Errorf("journal: saving: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("journal: saving: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("journal: saving: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("journal: saving: %w", err)
	}
	return nil
}
