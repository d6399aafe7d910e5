// Package store is the persistent tier of the result cache: a
// crash-safe, content-addressed on-disk store for simulation results,
// keyed by the same canonical content hashes the in-memory cache uses:
// scenario.Built.Key, for every paper-figure cell and every scenario
// run, palsim's flag runs included. Where runner.ResultCache
// makes one process warm, the store makes every later process warm:
// bit-reproducible simulations (the determinism invariant) never need to
// run twice on one machine, across palsweep/palsim invocations, CI runs
// and concurrent processes.
//
// On-disk layout, rooted at the directory handed to Open:
//
//	<root>/<codec-version>/objects/<k[:2]>/<key>.json   one archived result
//	<root>/<codec-version>/index.jsonl                  append-only metadata
//	<root>/<codec-version>/lock                         advisory-lock target
//
// An object is one file in the result codec's framed layout
// (export.EncodeResult): a compact core line — jobs, summary fields and
// a length + SHA-256 frame per payload — followed by the metrics and
// decisions sections. Get and Peek decode all of it; GetCore (and the
// CoreReads backend view a payload-free scenario sweep uses) decodes
// the core and only hashes the sections, which are most of the bytes.
// Keeping one file per object keeps one fsync per Put.
//
// The codec version (export.ResultFormatVersion) is a path component, so
// bumping the result codec orphans old artifacts instead of misreading
// them — and deliberately does NOT touch the simulation cache keys or
// their golden-key tests. Objects are written with temp-file + rename
// (atomic on POSIX), so a crash mid-Put can leave a stray temp file but
// never a torn object. The index is append-only JSONL — put records
// carry size/content-hash/creation time, access records refresh
// last-access for GC — and is advisory-flocked so N concurrent palsweep
// processes share one store safely; a torn trailing line (crash during
// append) is skipped on load, and objects missing from the index are
// reconstructed from file metadata. Store implements runner.Backend, so
// a ResultCache fronts it as tier 2 with single-flight intact.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/export"
	"repro/internal/sim"
)

// objectExt is the filename suffix of archived results.
const objectExt = ".json"

// Store is a handle on one on-disk result store. It is safe for
// concurrent use by multiple goroutines and — via advisory file locking
// on the index — by multiple processes. The zero value is not usable;
// construct with Open.
type Store struct {
	root    string // directory handed to Open
	dir     string // root/<codec version>
	objects string // dir/objects
	index   string // dir/index.jsonl
	lock    string // dir/lock

	// snap is the sibling sub-store holding engine snapshots at
	// root/snap-<snapshot codec version> (see snapshot.go). Its tree is
	// created lazily on the first PutSnapshot; nil on a snap handle
	// itself.
	snap *Store
}

// treeAt returns a store handle rooted at root whose versioned tree is
// root/<version>.
func treeAt(root, version string) *Store {
	dir := filepath.Join(root, version)
	return &Store{
		root:    root,
		dir:     dir,
		objects: filepath.Join(dir, "objects"),
		index:   filepath.Join(dir, "index.jsonl"),
		lock:    filepath.Join(dir, "lock"),
	}
}

// Open creates (if needed) and opens the store rooted at dir. The
// store's object tree lives under the current result-codec version; a
// directory populated by an older codec opens cleanly as an empty store
// for the new version, with the old objects left for GC.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	s := treeAt(dir, export.ResultFormatVersion)
	s.snap = treeAt(dir, snapVersionDir)
	if err := os.MkdirAll(s.objects, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// IsStore reports whether dir looks like a result store for the current
// codec version (palreport uses this to tell a store directory from a
// directory of payload files).
func IsStore(dir string) bool {
	info, err := os.Stat(filepath.Join(dir, export.ResultFormatVersion, "objects"))
	return err == nil && info.IsDir()
}

// IsStoreRoot reports whether dir holds a result store of ANY codec
// version. After a codec bump the current version's tree does not exist
// until the first write, but the directory is still a store — palstore
// must open it (gc is the documented way to reclaim the old tree).
func IsStoreRoot(dir string) bool {
	if IsStore(dir) {
		return true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if _, ok := versionNum(e.Name()); ok && e.IsDir() {
			if info, err := os.Stat(filepath.Join(dir, e.Name(), "objects")); err == nil && info.IsDir() {
				return true
			}
		}
	}
	return false
}

// Root returns the directory the store was opened on.
func (s *Store) Root() string { return s.root }

// Dir returns the versioned directory all state lives under.
func (s *Store) Dir() string { return s.dir }

// validKey reports whether key is a canonical content hash (the
// 64-hex-digit SHA-256 runner.Hash produces). Anything else is rejected
// before touching the filesystem: keys become path components.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// objectPath returns the sharded path of a key's object file.
func (s *Store) objectPath(key string) string {
	return filepath.Join(s.objects, key[:2], key+objectExt)
}

// Has reports whether an object for key exists.
func (s *Store) Has(key string) bool {
	if !validKey(key) {
		return false
	}
	_, err := os.Stat(s.objectPath(key))
	return err == nil
}

// ObjectSize returns the encoded size in bytes of the object stored
// under key, without decoding it or refreshing GC recency — one stat
// call. The journal's store probe uses it for size samples; absence is
// (0, false), never an error.
func (s *Store) ObjectSize(key string) (int64, bool) {
	if !validKey(key) {
		return 0, false
	}
	st, err := os.Stat(s.objectPath(key))
	if err != nil {
		return 0, false
	}
	return st.Size(), true
}

// Put persists a result under key. The write is atomic (temp file +
// rename in the object's shard directory) and idempotent: when the key
// already holds an object with the same content (the normal case — by
// the content-addressing invariant, equal keys mean equal results) only
// the index is touched. An existing object whose bytes differ — bit
// rot, truncation, a torn manual copy — is atomically replaced, so a
// re-simulated result self-heals the store instead of wedging the key.
// Implements runner.Backend.
func (s *Store) Put(key string, res *sim.Result) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q (want 64 hex digits)", key)
	}
	data, err := export.MarshalResult(res)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.putBytes(key, data)
}

// putBytes is the codec-agnostic body of Put: it publishes already
// encoded object bytes under key with the atomic-rename and indexing
// contract documented on Put. The caller has validated the key.
func (s *Store) putBytes(key string, data []byte) error {
	sum := sha256.Sum256(data)
	if existing, err := os.ReadFile(s.objectPath(key)); err == nil && bytes.Equal(existing, data) {
		// The object is already durable and identical. Normally only a
		// recency touch is due — but if the index lost this key's put
		// record (crash between rename and append), re-record the
		// metadata we just computed, restoring Verify's hash check.
		if idx, err := s.loadIndex(); err == nil {
			if e := idx[key]; e == nil || e.SHA256 == "" {
				now := time.Now()
				_ = s.appendIndex(indexRecord{
					Op:         opPut,
					Key:        key,
					Size:       int64(len(data)),
					SHA256:     hex.EncodeToString(sum[:]),
					UnixNano:   now.UnixNano(),
					AccessNano: now.UnixNano(),
				})
				return nil
			}
		}
		s.touch(key)
		return nil
	}
	shard := filepath.Dir(s.objectPath(key))
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(shard, ".put-*.tmp")
	if err != nil && os.IsNotExist(err) {
		// A concurrent GC may prune a shard directory it saw empty
		// between our MkdirAll and CreateTemp; recreate and retry once.
		if err = os.MkdirAll(shard, 0o755); err == nil {
			tmp, err = os.CreateTemp(shard, ".put-*.tmp")
		}
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Any failure past this point must not leave the temp file behind.
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	// Flush to stable storage before the rename publishes the object, so
	// a crash cannot expose a truncated file under a final name.
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp.Name(), s.objectPath(key)); err != nil {
		return cleanup(err)
	}
	now := time.Now()
	rec := indexRecord{
		Op:         opPut,
		Key:        key,
		Size:       int64(len(data)),
		SHA256:     hex.EncodeToString(sum[:]),
		UnixNano:   now.UnixNano(),
		AccessNano: now.UnixNano(),
	}
	// The object is durable at this point; a failed metadata append only
	// costs GC precision (the entry is reconstructed from file metadata),
	// so the error is deliberately dropped.
	_ = s.appendIndex(rec)
	return nil
}

// Get loads the result stored under key and refreshes its last-access
// time (a cache read is a use — GC's LRU order follows Get). A missing
// object is (nil, false, nil); a present-but-unreadable one is an error
// (run `palstore verify`). Implements runner.Backend.
func (s *Store) Get(key string) (*sim.Result, bool, error) {
	return s.load(key, true, export.UnmarshalResult)
}

// GetCore is Get through the core decoder: the result comes back
// without its metrics payload and decision trace, which are hashed but
// not parsed. A damaged object is an error exactly as for Get.
func (s *Store) GetCore(key string) (*sim.Result, bool, error) {
	return s.load(key, true, export.UnmarshalResultCore)
}

// Peek is Get without the last-access refresh: the read path for
// inspection and reporting (palstore info/export, palreport), which
// must not rewrite GC recency just by looking.
func (s *Store) Peek(key string) (*sim.Result, bool, error) {
	return s.load(key, false, export.UnmarshalResult)
}

// CoreReads is the runner.Backend view of a store for callers that
// never read a result's telemetry (a scenario sweep that archives no
// payloads): Get is GetCore, everything else — Put, ObjectSize — is the
// store's own. A damaged object is still an error, which the result
// cache answers by re-simulating; the Put of that result heals it.
type CoreReads struct{ *Store }

// Get implements runner.Backend through GetCore.
func (c CoreReads) Get(key string) (*sim.Result, bool, error) { return c.GetCore(key) }

func (s *Store) load(key string, touch bool, decode func([]byte) (*sim.Result, error)) (*sim.Result, bool, error) {
	if !validKey(key) {
		return nil, false, fmt.Errorf("store: invalid key %q (want 64 hex digits)", key)
	}
	data, err := os.ReadFile(s.objectPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: %w", err)
	}
	res, err := decode(data)
	if err != nil {
		return nil, false, fmt.Errorf("store: object %s: %w", key, err)
	}
	if touch {
		s.touch(key)
	}
	return res, true, nil
}

// touch appends a last-access record for key, best-effort and lock-free
// (see appendIndexUnlocked): GC precision is not worth failing — or
// serializing — reads over.
func (s *Store) touch(key string) {
	_ = s.appendIndexUnlocked(indexRecord{Op: opAccess, Key: key, UnixNano: time.Now().UnixNano()})
}

// Keys returns every stored key, sorted.
func (s *Store) Keys() ([]string, error) {
	shards, err := os.ReadDir(s.objects)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var keys []string
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(s.objects, shard.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || filepath.Ext(name) != objectExt {
				continue
			}
			key := name[:len(name)-len(objectExt)]
			if validKey(key) && key[:2] == shard.Name() {
				keys = append(keys, key)
			}
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Len returns the number of stored objects.
func (s *Store) Len() (int, error) {
	keys, err := s.Keys()
	if err != nil {
		return 0, err
	}
	return len(keys), nil
}

// ObjectInfo is one stored object's metadata, merged from the object
// file and the index.
type ObjectInfo struct {
	Key  string
	Size int64
	// SHA256 is the content hash of the archived bytes recorded at Put
	// time; empty when the index lost the put record (Verify then checks
	// decodability only).
	SHA256     string
	Created    time.Time
	LastAccess time.Time
}

// Info returns metadata for one stored key.
func (s *Store) Info(key string) (ObjectInfo, bool, error) {
	if !validKey(key) {
		return ObjectInfo{}, false, fmt.Errorf("store: invalid key %q (want 64 hex digits)", key)
	}
	st, err := os.Stat(s.objectPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return ObjectInfo{}, false, nil
		}
		return ObjectInfo{}, false, fmt.Errorf("store: %w", err)
	}
	idx, err := s.loadIndex()
	if err != nil {
		return ObjectInfo{}, false, err
	}
	return s.mergeInfo(key, st, idx[key]), true, nil
}

// Infos returns metadata for every stored object, sorted by key.
func (s *Store) Infos() ([]ObjectInfo, error) {
	keys, err := s.Keys()
	if err != nil {
		return nil, err
	}
	idx, err := s.loadIndex()
	if err != nil {
		return nil, err
	}
	out := make([]ObjectInfo, 0, len(keys))
	for _, key := range keys {
		st, err := os.Stat(s.objectPath(key))
		if err != nil {
			continue // raced with a concurrent GC
		}
		out = append(out, s.mergeInfo(key, st, idx[key]))
	}
	return out, nil
}

// mergeInfo combines file metadata with the key's index entry; a
// missing entry (lost index, crash between rename and append) falls
// back to file times.
func (s *Store) mergeInfo(key string, st os.FileInfo, e *indexEntry) ObjectInfo {
	info := ObjectInfo{Key: key, Size: st.Size(), Created: st.ModTime(), LastAccess: st.ModTime()}
	if e != nil {
		info.SHA256 = e.SHA256
		if !e.Created.IsZero() {
			info.Created = e.Created
		}
		if !e.LastAccess.IsZero() {
			info.LastAccess = e.LastAccess
		}
	}
	return info
}
