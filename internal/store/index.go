package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The index is append-only JSONL: cheap to update under concurrent
// writers (one flocked O_APPEND write per record), dispensable (objects
// are the ground truth and carry their own hashes; the index only adds
// creation and access times), and compacted by GC into one put record
// per surviving object.

// Index record operations.
const (
	opPut    = "put"    // object written: creation time
	opAccess = "access" // object read: refreshes last-access for GC
)

// indexRecord is one JSONL line.
type indexRecord struct {
	Op  string `json:"op"`
	Key string `json:"key"`
	// UnixNano is the record's event time in nanoseconds since the epoch:
	// creation for put records, access time for access records.
	// Nanosecond resolution keeps GC's recency ordering exact even for
	// puts landing within one second.
	UnixNano int64 `json:"unix_ns"`
	// AccessNano carries the last-access time on compacted put records,
	// so a rewritten index preserves GC recency.
	AccessNano int64 `json:"access_ns,omitempty"`
}

// indexEntry is the folded per-key state of the index.
type indexEntry struct {
	Created    time.Time
	LastAccess time.Time
}

// appendIndex appends one record under the exclusive advisory lock —
// the path for put records, whose creation time should never be lost to
// a racing compaction.
func (s *Store) appendIndex(rec indexRecord) error {
	l, err := s.acquire(true)
	if err != nil {
		return err
	}
	defer l.release()
	return s.appendIndexUnlocked(rec)
}

// appendIndexUnlocked appends one record with a single O_APPEND write
// and no lock. Access records take this path so warm-start reads never
// serialize on the store lock: a one-line O_APPEND write is atomic on
// local filesystems, a torn interleaving is skipped on load, and the
// worst race (an append landing on the pre-compaction inode during a
// concurrent GC rewrite) loses nothing but one recency update.
func (s *Store) appendIndexUnlocked(rec indexRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: index record: %w", err)
	}
	line = append(line, '\n')
	f, err := os.OpenFile(s.index, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: index: %w", err)
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return fmt.Errorf("store: index append: %w", err)
	}
	return f.Close()
}

// loadIndex reads and folds the index under a shared lock.
func (s *Store) loadIndex() (map[string]*indexEntry, error) {
	l, err := s.acquire(false)
	if err != nil {
		return nil, err
	}
	defer l.release()
	return s.loadIndexLocked()
}

// maxIndexLine bounds one index line. A record is a few hundred bytes;
// a longer line is skipped like a torn one.
const maxIndexLine = 1 << 20

// loadIndexLocked reads and folds the index; the caller holds the lock.
// Unparsable lines are skipped rather than fatal: the only way one
// arises is a torn append (crash mid-write), and the object files remain
// the ground truth. So are over-long lines.
func (s *Store) loadIndexLocked() (map[string]*indexEntry, error) {
	data, err := os.ReadFile(s.index)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]*indexEntry{}, nil
		}
		return nil, fmt.Errorf("store: index: %w", err)
	}
	entries := make(map[string]*indexEntry)
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		if len(line) > maxIndexLine {
			continue
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec indexRecord
		if err := json.Unmarshal(line, &rec); err != nil || !validKey(rec.Key) {
			continue // torn or foreign line; objects are the ground truth
		}
		e := entries[rec.Key]
		if e == nil {
			e = &indexEntry{}
			entries[rec.Key] = e
		}
		switch rec.Op {
		case opPut:
			e.Created = time.Unix(0, rec.UnixNano)
			access := rec.AccessNano
			if access == 0 {
				access = rec.UnixNano
			}
			if t := time.Unix(0, access); t.After(e.LastAccess) {
				e.LastAccess = t
			}
		case opAccess:
			if t := time.Unix(0, rec.UnixNano); t.After(e.LastAccess) {
				e.LastAccess = t
			}
		}
	}
	return entries, nil
}

// writeIndexLocked atomically replaces the index with one compacted put
// record per entry, in key order. The caller holds the exclusive lock.
func (s *Store) writeIndexLocked(entries map[string]*indexEntry) error {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		e := entries[k]
		line, err := json.Marshal(indexRecord{
			Op:         opPut,
			Key:        k,
			UnixNano:   e.Created.UnixNano(),
			AccessNano: e.LastAccess.UnixNano(),
		})
		if err != nil {
			return fmt.Errorf("store: index record: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmp, err := os.CreateTemp(filepath.Dir(s.index), ".index-*.tmp")
	if err != nil {
		return fmt.Errorf("store: index: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: index: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: index: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: index: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.index); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: index: %w", err)
	}
	return nil
}
