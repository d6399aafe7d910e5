package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/export"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The store is the persistent tier behind the sweep's snapshot cache.
var _ runner.SnapshotBackend = (*Store)(nil)

// captureSpec runs tinySpec's configuration up to the horizon and
// returns the snapshot plus the straight-through result for comparison.
func captureSpec(t *testing.T, horizon int) (*sim.Snapshot, *sim.Result) {
	t.Helper()
	s, err := scenario.Parse([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := b.Config()
	if err != nil {
		t.Fatal(err)
	}
	snap, early, err := sim.Capture(cfg, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatalf("tiny run completed before horizon %d (early=%v)", horizon, early != nil)
	}
	straight, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	return snap, straight
}

// hasSnapshot reports whether st lists a snapshot under key.
func hasSnapshot(t *testing.T, st *Store, key string) bool {
	t.Helper()
	keys, err := st.SnapshotKeys()
	if err != nil {
		t.Fatal(err)
	}
	return slices.Contains(keys, key)
}

// TestSnapshotStoreRoundTrip: a snapshot persisted and loaded back must
// deep-equal the captured one, re-encode to identical bytes, and resume
// into a result byte-identical to the straight-through run — the store
// must be a transparent waypoint.
func TestSnapshotStoreRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap, straight := captureSpec(t, 5)
	key := key64(1)
	if hasSnapshot(t, st, key) {
		t.Fatal("snapshot present before put")
	}
	if err := st.PutSnapshot(key, snap); err != nil {
		t.Fatal(err)
	}
	if !hasSnapshot(t, st, key) {
		t.Fatal("snapshot missing after put")
	}
	loaded, ok, err := st.GetSnapshot(key)
	if err != nil || !ok {
		t.Fatalf("get snapshot: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(snap, loaded) {
		t.Fatal("loaded snapshot not deep-equal to the captured one")
	}
	var a, b bytes.Buffer
	if err := export.EncodeSnapshot(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := export.EncodeSnapshot(&b, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("re-encoding the loaded snapshot changed the bytes")
	}

	// Resume from the stored copy: the forked result must match the
	// straight-through run bit for bit (PlaceTimes is wall-clock).
	s, err := scenario.Parse([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	built, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := built.Config()
	if err != nil {
		t.Fatal(err)
	}
	forked, err := sim.Resume(cfg, loaded)
	if err != nil {
		t.Fatal(err)
	}
	straight.PlaceTimes, forked.PlaceTimes = nil, nil
	var want, got bytes.Buffer
	if err := export.EncodeResult(&want, straight); err != nil {
		t.Fatal(err)
	}
	if err := export.EncodeResult(&got, forked); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("resume from stored snapshot not byte-identical to straight-through run")
	}
}

// TestSnapshotsInvisibleToResultListings: snapshot objects must never
// appear in the result tree's Keys/Infos/Len (palreport and palstore ls
// would miscount them as results).
func TestSnapshotsInvisibleToResultListings(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := runSpec(t, tinySpec)
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	snap, _ := captureSpec(t, 3)
	if err := st.PutSnapshot(key64(7), snap); err != nil {
		t.Fatal(err)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("result keys = %v, want exactly the one result key", keys)
	}
	snapKeys, err := st.SnapshotKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(snapKeys) != 1 || snapKeys[0] != key64(7) {
		t.Fatalf("snapshot keys = %v, want exactly the one snapshot key", snapKeys)
	}
	infos, err := st.SnapshotInfos()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Key != key64(7) || infos[0].Size <= 0 {
		t.Fatalf("snapshot infos = %+v", infos)
	}
}

// TestVerifyCoversSnapshots: verify must pass a store holding healthy
// snapshots and flag a corrupted snapshot object with its kind — a byte
// flipped mid-object, or one digit of the body swapped for another,
// which leaves valid JSON of the same length — and a snapshot read must
// refuse either rather than resume from it.
func TestVerifyCoversSnapshots(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := captureSpec(t, 4)
	key := key64(3)
	if err := st.PutSnapshot(key, snap); err != nil {
		t.Fatal(err)
	}
	problems, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("healthy store reported problems: %v", problems)
	}
	path := st.snapTree().objectPath(key)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.IndexByte(clean, '\n') + 1
	digit := body + bytes.Index(clean[body:], []byte(`"rounds":`)) + len(`"rounds":`)
	if digit < body || clean[digit] < '0' || clean[digit] > '9' {
		t.Fatal("snapshot body has no rounds digit")
	}
	for name, edit := range map[string]func([]byte){
		"mid-object flip": func(b []byte) { b[len(b)/2] ^= 0xFF },
		"body digit swap": func(b []byte) { b[digit] = '0' + (b[digit]-'0'+1)%10 },
	} {
		data := bytes.Clone(clean)
		edit(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		problems, err = st.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) != 1 || problems[0].Kind != "snapshot" || problems[0].Key != key {
			t.Fatalf("%s: problems = %v, want one snapshot finding for %s", name, problems, key[:16])
		}
		if _, _, err := st.GetSnapshot(key); err == nil {
			t.Fatalf("%s: snapshot read served a damaged object", name)
		}
	}
}

// TestGCCoversSnapshots: the GC policy applies to the snapshot tree —
// a zero policy keeps snapshots, an age bound evicts stale ones — and
// results are untouched by snapshot eviction.
func TestGCCoversSnapshots(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := runSpec(t, tinySpec)
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	snap, _ := captureSpec(t, 4)
	if err := st.PutSnapshot(key64(9), snap); err != nil {
		t.Fatal(err)
	}
	rep, err := st.GC(GCPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kept != 2 || rep.Removed != 0 {
		t.Fatalf("zero-policy gc kept %d removed %d, want 2/0", rep.Kept, rep.Removed)
	}
	if !hasSnapshot(t, st, key64(9)) {
		t.Fatal("zero-policy gc evicted the snapshot")
	}
	// Everything is stale relative to a far-future reference time.
	rep, err = st.GC(GCPolicy{MaxAge: time.Minute, Now: time.Now().Add(24 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed != 2 {
		t.Fatalf("age gc removed %d, want both objects", rep.Removed)
	}
	if hasSnapshot(t, st, key64(9)) || st.Has(key) {
		t.Fatal("age gc left stale objects behind")
	}
}

// TestGCRemovesOrphanedSnapshotVersions: a snapshot-codec bump re-roots
// the snapshot tree; GC reclaims the older snapshot tree, with or
// without a live one beside it, and leaves newer snapshot trees and the
// result trees alone.
func TestGCRemovesOrphanedSnapshotVersions(t *testing.T) {
	for _, live := range []bool{false, true} {
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if live {
			snap, _ := captureSpec(t, 4)
			if err := st.PutSnapshot(key64(9), snap); err != nil {
				t.Fatal(err)
			}
		}
		oldObj := filepath.Join(dir, "snap-v0", "objects", "ab")
		if err := os.MkdirAll(oldObj, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(oldObj, key64(1)+".json"), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		newer := filepath.Join(dir, "snap-v999", "objects")
		if err := os.MkdirAll(newer, 0o755); err != nil {
			t.Fatal(err)
		}
		rep, err := st.GC(GCPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "snap-v0")); !os.IsNotExist(err) {
			t.Errorf("live=%v: orphaned snap-v0 tree survived GC", live)
		}
		if _, err := os.Stat(newer); err != nil {
			t.Errorf("live=%v: a newer snapshot codec's tree was removed", live)
		}
		if _, err := os.Stat(filepath.Join(dir, filepath.Base(st.Dir()))); err != nil {
			t.Errorf("live=%v: the result tree was removed", live)
		}
		if rep.Removed != 1 {
			t.Errorf("live=%v: report.Removed = %d, want 1 orphaned object", live, rep.Removed)
		}
		if live && !hasSnapshot(t, st, key64(9)) {
			t.Error("the live snapshot was removed")
		}
	}
}
