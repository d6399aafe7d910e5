package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// GCPolicy bounds the store. Zero values disable the corresponding
// bound; the zero policy keeps everything (GC then only compacts the
// index and sweeps stray temp files).
type GCPolicy struct {
	// MaxBytes caps the total size of stored objects; the
	// least-recently-accessed objects are evicted until the store fits.
	MaxBytes int64
	// MaxAge evicts objects whose last access is older than this.
	MaxAge time.Duration
	// Now overrides the reference time for age decisions (tests); zero
	// means time.Now().
	Now time.Time
}

// GCReport summarizes one compaction.
type GCReport struct {
	Kept, Removed         int
	KeptBytes, FreedBytes int64
}

// GC compacts the store under the exclusive lock: object trees left
// behind by older codec versions are removed, stale temp files from
// crashed writers are swept, objects violating the policy are deleted
// (oldest last-access first), and the append-only index is rewritten to
// exactly one record per surviving object. Concurrent readers and
// writers are safe throughout: readers see an object or a clean miss,
// and writers — which publish lock-free via rename — are protected by
// the temp sweep's age gate (only temps older than any plausible
// in-flight Put are removed) and by Put's shard-recreation retry.
func (s *Store) GC(p GCPolicy) (GCReport, error) {
	now := p.Now
	if now.IsZero() {
		now = time.Now()
	}
	report, err := s.gcTree(p, now)
	if err != nil {
		return report, err
	}
	// Snapshots share the policy and the root: the live snapshot tree
	// compacts exactly like the result tree. Without one there is
	// nothing to compact, but a snapshot-codec bump may still have
	// orphaned older trees.
	snap := s.snapTree()
	if !s.hasSnapTree() {
		return addReports(report, snap.sweepOrphanedVersions()), nil
	}
	snapReport, err := snap.gcTree(p, now)
	return addReports(report, snapReport), err
}

// addReports merges two compaction summaries.
func addReports(a, b GCReport) GCReport {
	return GCReport{
		Kept:       a.Kept + b.Kept,
		Removed:    a.Removed + b.Removed,
		KeptBytes:  a.KeptBytes + b.KeptBytes,
		FreedBytes: a.FreedBytes + b.FreedBytes,
	}
}

// gcTree compacts one object tree under its exclusive lock.
func (s *Store) gcTree(p GCPolicy, now time.Time) (GCReport, error) {
	l, err := s.acquire(true)
	if err != nil {
		return GCReport{}, err
	}
	defer l.release()

	keys, err := s.Keys()
	if err != nil {
		return GCReport{}, err
	}
	orphans := s.sweepOrphanedVersions()
	s.sweepTempFiles(now)
	idx, err := s.loadIndexLocked()
	if err != nil {
		return GCReport{}, err
	}

	type candidate struct {
		key  string
		info ObjectInfo
	}
	var objs []candidate
	var total int64
	for _, key := range keys {
		st, err := os.Stat(s.objectPath(key))
		if err != nil {
			continue
		}
		info := s.mergeInfo(key, st, idx[key])
		objs = append(objs, candidate{key: key, info: info})
		total += info.Size
	}

	doomed := make(map[string]bool)
	if p.MaxAge > 0 {
		cutoff := now.Add(-p.MaxAge)
		for _, o := range objs {
			if o.info.LastAccess.Before(cutoff) {
				doomed[o.key] = true
				total -= o.info.Size
			}
		}
	}
	if p.MaxBytes > 0 && total > p.MaxBytes {
		// Evict least-recently-accessed first; ties break on key so the
		// outcome is stable.
		sort.Slice(objs, func(i, j int) bool {
			if !objs[i].info.LastAccess.Equal(objs[j].info.LastAccess) {
				return objs[i].info.LastAccess.Before(objs[j].info.LastAccess)
			}
			return objs[i].key < objs[j].key
		})
		for _, o := range objs {
			if total <= p.MaxBytes {
				break
			}
			if doomed[o.key] {
				continue
			}
			doomed[o.key] = true
			total -= o.info.Size
		}
	}

	report := orphans
	survivors := make(map[string]*indexEntry, len(objs))
	for _, o := range objs {
		if doomed[o.key] {
			if err := os.Remove(s.objectPath(o.key)); err != nil && !os.IsNotExist(err) {
				return report, fmt.Errorf("store: gc: %w", err)
			}
			report.Removed++
			report.FreedBytes += o.info.Size
			continue
		}
		report.Kept++
		report.KeptBytes += o.info.Size
		survivors[o.key] = &indexEntry{
			Size:       o.info.Size,
			SHA256:     o.info.SHA256,
			Created:    o.info.Created,
			LastAccess: o.info.LastAccess,
		}
	}
	s.sweepEmptyShards()
	if err := s.writeIndexLocked(survivors); err != nil {
		return report, err
	}
	return report, nil
}

// tempMaxAge is how old a temp file must be before GC treats it as the
// leftover of a crashed writer. Puts are lock-free (they publish via
// rename), so a freshly created temp may belong to a live writer in
// another process; one that has sat for ten minutes cannot — a Put
// holds its temp for milliseconds.
const tempMaxAge = 10 * time.Minute

// sweepTempFiles removes stale leftovers of crashed atomic writes
// (".put-*" and ".index-*" temp names never survive a successful
// operation), age-gated so an in-flight writer's temp is never pulled
// out from under it.
func (s *Store) sweepTempFiles(now time.Time) {
	cutoff := now.Add(-tempMaxAge)
	for _, pattern := range []string{
		filepath.Join(s.objects, "*", ".put-*.tmp"),
		filepath.Join(s.dir, ".index-*.tmp"),
	} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			continue
		}
		for _, m := range matches {
			if st, err := os.Stat(m); err == nil && st.ModTime().Before(cutoff) {
				os.Remove(m)
			}
		}
	}
}

// sweepOrphanedVersions removes the sibling trees of STRICTLY OLDER
// codec versions under this tree's own name prefix ("v<n>" for results,
// "snap-v<n>" for snapshots): a codec bump re-roots the tree at a new
// version directory, and the superseded tree can never be read again
// by any current or future codebase — GC is the documented point at
// which it is reclaimed. Newer trees are left alone (a stale binary
// must never wipe the store of an upgraded one running beside it), as
// is anything not matching the tree's version naming, so the other
// kind's trees and unrelated files a user keeps next to the store
// survive.
func (s *Store) sweepOrphanedVersions() GCReport {
	var report GCReport
	base := filepath.Base(s.dir)
	i := strings.LastIndexByte(base, 'v')
	if i < 0 {
		return report
	}
	prefix := base[:i]
	current, ok := versionNum(base[i:])
	if !ok {
		return report
	}
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return report
	}
	for _, e := range entries {
		name, found := strings.CutPrefix(e.Name(), prefix)
		if !found || !e.IsDir() {
			continue
		}
		if n, ok := versionNum(name); !ok || n >= current {
			continue
		}
		old := filepath.Join(s.root, e.Name())
		filepath.Walk(old, func(_ string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() && filepath.Ext(info.Name()) == objectExt {
				report.Removed++
				report.FreedBytes += info.Size()
			}
			return nil
		})
		os.RemoveAll(old)
	}
	return report
}

// versionNum parses a codec-version directory name ("v1", "v12", ...).
func versionNum(name string) (int, bool) {
	if len(name) < 2 || name[0] != 'v' {
		return 0, false
	}
	n := 0
	for i := 1; i < len(name); i++ {
		if name[i] < '0' || name[i] > '9' {
			return 0, false
		}
		n = n*10 + int(name[i]-'0')
	}
	return n, true
}

// sweepEmptyShards prunes shard directories emptied by eviction.
func (s *Store) sweepEmptyShards() {
	shards, err := os.ReadDir(s.objects)
	if err != nil {
		return
	}
	for _, shard := range shards {
		if shard.IsDir() {
			os.Remove(filepath.Join(s.objects, shard.Name())) // fails (harmlessly) unless empty
		}
	}
}
