package store

// Engine snapshots persist beside results in a sibling versioned tree:
//
//	<root>/snap-<snapshot codec version>/objects/<k[:2]>/<key>.json
//	<root>/snap-<snapshot codec version>/index.jsonl
//	<root>/snap-<snapshot codec version>/lock
//
// The tree reuses the whole object/index/lock machinery of the result
// tree (a snapshot handle is just a second Store value rooted at the
// same directory), but is deliberately named "snap-v<n>", NOT "v<n>":
// the orphaned-version sweep reclaims only siblings under a tree's own
// name prefix, so the result tree's sweep never sees snapshot trees,
// and the snapshot tree's reclaims older "snap-v<digits>" ones. Result listings
// (Keys/Infos) likewise never see snapshot objects, because they scan
// only the result tree; palstore reports the two kinds side by side via
// SnapshotKeys/SnapshotInfos.
//
// Snapshot keys are content hashes of (prefix spec, horizon) computed
// by the scenario layer (scenario.ForkSpec), in the same 64-hex-digit
// space as result keys but never colliding in meaning: the trees are
// disjoint.

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/export"
	"repro/internal/sim"
)

// snapVersionPrefix distinguishes snapshot trees from result trees in
// the shared store root.
const snapVersionPrefix = "snap-"

// snapVersionDir is the snapshot tree's directory name under the store
// root, versioned by the snapshot codec like the result tree is by the
// result codec.
const snapVersionDir = snapVersionPrefix + export.SnapshotFormatVersion

// snapTree returns the snapshot sub-store handle.
func (s *Store) snapTree() *Store {
	if s.snap == nil {
		// s is itself a snapshot handle; guard against misuse.
		panic("store: snapshot operation on a snapshot sub-handle")
	}
	return s.snap
}

// hasSnapTree reports whether the snapshot tree has been created (a
// store that never persisted a snapshot has none, and every snapshot
// read path treats that as a clean miss).
func (s *Store) hasSnapTree() bool {
	info, err := os.Stat(s.snapTree().objects)
	return err == nil && info.IsDir()
}

// PutSnapshot persists an engine snapshot under key with the same
// atomic-write and idempotent-rewrite contract as Put. The snapshot
// tree is created on first use.
func (s *Store) PutSnapshot(key string, snap *sim.Snapshot) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid snapshot key %q (want 64 hex digits)", key)
	}
	var buf bytes.Buffer
	if err := export.EncodeSnapshot(&buf, snap); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sub := s.snapTree()
	if err := os.MkdirAll(sub.objects, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return sub.putBytes(key, buf.Bytes())
}

// GetSnapshot loads the snapshot stored under key and refreshes its
// last-access time. A missing snapshot (or a store with no snapshot
// tree at all) is (nil, false, nil).
func (s *Store) GetSnapshot(key string) (*sim.Snapshot, bool, error) {
	return s.loadSnapshot(key, true)
}

// PeekSnapshot is GetSnapshot without the last-access refresh — the
// inspection path (palstore info), which must not rewrite GC recency.
func (s *Store) PeekSnapshot(key string) (*sim.Snapshot, bool, error) {
	return s.loadSnapshot(key, false)
}

func (s *Store) loadSnapshot(key string, touch bool) (*sim.Snapshot, bool, error) {
	if !validKey(key) {
		return nil, false, fmt.Errorf("store: invalid snapshot key %q (want 64 hex digits)", key)
	}
	sub := s.snapTree()
	data, err := os.ReadFile(sub.objectPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: %w", err)
	}
	snap, err := export.UnmarshalSnapshot(data)
	if err != nil {
		return nil, false, fmt.Errorf("store: snapshot %s: %w", key, err)
	}
	if touch {
		sub.touch(key)
	}
	return snap, true, nil
}

// SnapshotKeys returns every stored snapshot key, sorted. A store with
// no snapshot tree has none.
func (s *Store) SnapshotKeys() ([]string, error) {
	if !s.hasSnapTree() {
		return nil, nil
	}
	return s.snapTree().Keys()
}

// SnapshotInfos returns metadata for every stored snapshot, sorted by
// key (the snapshot counterpart of Infos).
func (s *Store) SnapshotInfos() ([]ObjectInfo, error) {
	if !s.hasSnapTree() {
		return nil, nil
	}
	return s.snapTree().Infos()
}
