package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	"repro/internal/export"
)

// Problem is one verification finding.
type Problem struct {
	// Kind names the object tree the problem is in: "result" or
	// "snapshot".
	Kind string
	Key  string
	Msg  string
}

// String renders the problem for CLI output.
func (p Problem) String() string {
	if p.Kind != "" {
		return fmt.Sprintf("%s %s: %s", p.Kind, p.Key, p.Msg)
	}
	return fmt.Sprintf("%s: %s", p.Key, p.Msg)
}

// Verify audits every stored object under a shared lock: the archived
// bytes must match the content hash recorded at Put time (bit rot,
// truncation and manual edits all surface here), the archive must
// decode under the current codec (format tag included), and every
// indexed object must still exist on disk. Snapshot objects are audited
// with the same rigor against the snapshot codec. It returns the
// problems found; an empty slice is a clean store.
func (s *Store) Verify() ([]Problem, error) {
	problems, err := s.verifyTree("result", func(data []byte) error {
		_, err := export.UnmarshalResult(data)
		return err
	})
	if err != nil {
		return nil, err
	}
	if s.hasSnapTree() {
		snapProblems, err := s.snapTree().verifyTree("snapshot", func(data []byte) error {
			_, err := export.UnmarshalSnapshot(data)
			return err
		})
		if err != nil {
			return nil, err
		}
		problems = append(problems, snapProblems...)
	}
	return problems, nil
}

// verifyTree audits one object tree under its shared lock, decoding
// each object with the tree's codec.
func (s *Store) verifyTree(kind string, decode func([]byte) error) ([]Problem, error) {
	l, err := s.acquire(false)
	if err != nil {
		return nil, err
	}
	defer l.release()

	keys, err := s.Keys()
	if err != nil {
		return nil, err
	}
	idx, err := s.loadIndexLocked()
	if err != nil {
		return nil, err
	}

	var problems []Problem
	onDisk := make(map[string]bool, len(keys))
	for _, key := range keys {
		onDisk[key] = true
		data, err := os.ReadFile(s.objectPath(key))
		if err != nil {
			problems = append(problems, Problem{Kind: kind, Key: key, Msg: fmt.Sprintf("unreadable: %v", err)})
			continue
		}
		if e := idx[key]; e != nil && e.SHA256 != "" {
			// Size first: it is free and a mismatch (truncation,
			// concatenation) makes hashing pointless.
			if e.Size != int64(len(data)) {
				problems = append(problems, Problem{Kind: kind, Key: key,
					Msg: fmt.Sprintf("size mismatch: object is %d bytes, index recorded %d", len(data), e.Size)})
				continue
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != e.SHA256 {
				problems = append(problems, Problem{Kind: kind, Key: key,
					Msg: fmt.Sprintf("content hash mismatch: object is %s, index recorded %s", got[:16], e.SHA256[:16])})
				continue
			}
		}
		if err := decode(data); err != nil {
			problems = append(problems, Problem{Kind: kind, Key: key, Msg: fmt.Sprintf("undecodable: %v", err)})
		}
	}
	for key, e := range idx {
		// Only entries with a put record witness an object. An
		// access-only phantom (a touch that raced a GC compaction) is
		// bookkeeping noise the next compaction clears, not damage.
		if !onDisk[key] && !e.Created.IsZero() {
			problems = append(problems, Problem{Kind: kind, Key: key, Msg: "indexed object missing from disk (deleted outside gc?)"})
		}
	}
	return problems, nil
}
