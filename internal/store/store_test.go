package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/decision"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The store is the persistence half of the content-addressed cache, so
// it is tested with the cache's own rigor: exact round trips (the same
// standard the engine's stepping byte-identity suites set), crash
// tolerance, and multi-handle concurrency.

// Compile-time check: the store plugs into the runner's cache as its
// second tier.
var _ runner.Backend = (*Store)(nil)

// runSpec parses, builds and runs a scenario, returning its canonical
// cache key and result.
func runSpec(t testing.TB, src string) (string, *sim.Result) {
	t.Helper()
	s, err := scenario.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	return b.Key(), res
}

// tinySpec is a fast scenario for tests that only need some result.
const tinySpec = `{"name": "tiny", "cluster": {"nodes": 2},
	"workload": {"source": "synthetic", "num_jobs": 12, "jobs_per_hour": 30},
	"policy": {"name": "packed-sticky"}}`

// key64 fabricates a distinct valid key (64 hex digits) per index.
func key64(i int) string {
	return fmt.Sprintf("%02x%062x", i%256, i)
}

// TestStoreRoundTripByteIdentical: a result computed live and the same
// result loaded back from the store must be exactly equal — every job
// field, aggregate, series, the full metrics payload and the full
// decision trace — and
// re-encoding the loaded result must reproduce the stored bytes
// bit-for-bit. Pinned on a Sia trace and a synthetic-bursty one (the
// two arrival regimes with the most engine traffic), with telemetry and
// decision traces enabled so every archived surface is exercised.
func TestStoreRoundTripByteIdentical(t *testing.T) {
	cases := map[string]string{
		"sia": `{"name": "sia-rt", "workload": {"source": "sia-philly", "workload": 5},
			"policy": {"name": "pal"}, "sched": {"name": "las"},
			"metrics": {"enabled": true}, "decisions": {"enabled": true}}`,
		"bursty": `{"name": "bursty-rt", "cluster": {"nodes": 4},
			"workload": {"source": "synthetic", "arrivals": "bursty", "num_jobs": 80, "jobs_per_hour": 40},
			"policy": {"name": "random-sticky"}, "sched": {"name": "srtf"},
			"metrics": {"enabled": true}, "decisions": {"enabled": true}}`,
	}
	for name, src := range cases {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			key, live := runSpec(t, src)
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(key, live); err != nil {
				t.Fatal(err)
			}

			// A fresh handle on the same directory stands in for a second
			// process warm-starting from the store.
			st2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			loaded, ok, err := st2.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("stored object not found")
			}

			// Exact equality of everything but the sink pointers (live runs
			// carry a *metrics.Collector and a *decision.Recorder, loaded
			// ones ArchivedSinks)...
			liveCopy, loadedCopy := *live, *loaded
			liveCopy.Metrics, loadedCopy.Metrics = nil, nil
			liveCopy.Decisions, loadedCopy.Decisions = nil, nil
			if !reflect.DeepEqual(&liveCopy, &loadedCopy) {
				for i := range liveCopy.Jobs {
					if !reflect.DeepEqual(liveCopy.Jobs[i], loadedCopy.Jobs[i]) {
						t.Errorf("job %d diverged:\n live   %+v\n loaded %+v",
							i, *liveCopy.Jobs[i], *loadedCopy.Jobs[i])
						break
					}
				}
				t.Fatal("loaded result is not deep-equal to the live one")
			}
			// ...and of the payloads both sinks expose, series included.
			pl, pd := metrics.FromResult(live), metrics.FromResult(loaded)
			if pl == nil || pd == nil {
				t.Fatalf("payload missing: live=%v loaded=%v", pl != nil, pd != nil)
			}
			if !reflect.DeepEqual(pl, pd) {
				t.Fatal("metrics payloads diverged across the round trip")
			}
			// ...and of the decision traces both sinks expose, record for
			// record.
			tl, td := decision.FromResult(live), decision.FromResult(loaded)
			if tl == nil || td == nil {
				t.Fatalf("decision trace missing: live=%v loaded=%v", tl != nil, td != nil)
			}
			if len(tl.Records) == 0 {
				t.Fatal("live decision trace is empty; round trip is vacuous")
			}
			if !reflect.DeepEqual(tl, td) {
				t.Fatal("decision traces diverged across the round trip")
			}
			// The core read is the full read without the payloads.
			core, ok, err := st2.GetCore(key)
			if err != nil || !ok {
				t.Fatalf("core read: ok=%v err=%v", ok, err)
			}
			if core.Metrics != nil || core.Decisions != nil || !reflect.DeepEqual(core, &loadedCopy) {
				t.Fatal("core read is not the full read without payloads")
			}

			// Byte identity: the loaded result re-encodes to exactly the
			// stored bytes — the codec is a fixed point, so a re-Put (or a
			// verify pass) can never observe drift.
			stored, err := os.ReadFile(st.objectPath(key))
			if err != nil {
				t.Fatal(err)
			}
			var reenc bytes.Buffer
			if err := export.EncodeResult(&reenc, loaded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stored, reenc.Bytes()) {
				t.Fatalf("re-encoding the loaded result changed the bytes (%d vs %d)",
					len(stored), reenc.Len())
			}
		})
	}
}

func TestStoreBasics(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := runSpec(t, tinySpec)

	if _, ok, err := st.Get(key); err != nil || ok {
		t.Fatalf("empty store Get: ok=%v err=%v", ok, err)
	}
	if st.Has(key) {
		t.Fatal("empty store Has = true")
	}
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if !st.Has(key) {
		t.Fatal("Has = false after Put")
	}
	// Idempotent re-Put.
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	n, err := st.Len()
	if err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}
	keys, err := st.Keys()
	if err != nil || len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
	info, ok, err := st.Info(key)
	if err != nil || !ok {
		t.Fatalf("Info: ok=%v err=%v", ok, err)
	}
	if info.Size <= 0 || info.SHA256 == "" || info.Created.IsZero() {
		t.Errorf("Info incomplete: %+v", info)
	}

	// Invalid keys are rejected before touching the filesystem.
	for _, bad := range []string{"", "abc", "XYZ", key[:63], key + "0", "../" + key[3:]} {
		if err := st.Put(bad, res); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", bad)
		}
		if _, _, err := st.Get(bad); err == nil {
			t.Errorf("Get(%q) accepted an invalid key", bad)
		}
	}
}

func TestStoreIsStore(t *testing.T) {
	dir := t.TempDir()
	if IsStore(dir) {
		t.Fatal("fresh directory detected as store")
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if !IsStore(dir) {
		t.Fatal("opened store not detected")
	}
}

func TestStoreGCAge(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, res := runSpec(t, tinySpec)
	for i := 0; i < 3; i++ {
		if err := st.Put(key64(i), res); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing is older than an hour yet.
	rep, err := st.GC(GCPolicy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed != 0 || rep.Kept != 3 {
		t.Fatalf("premature eviction: %+v", rep)
	}
	// From two hours in the future, everything is stale.
	rep, err = st.GC(GCPolicy{MaxAge: time.Hour, Now: time.Now().Add(2 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed != 3 || rep.Kept != 0 {
		t.Fatalf("age eviction: %+v", rep)
	}
	if n, _ := st.Len(); n != 0 {
		t.Fatalf("Len = %d after full GC", n)
	}
}

func TestStoreGCSizeEvictsLRU(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, res := runSpec(t, tinySpec)
	a, b, c := key64(10), key64(11), key64(12)
	for _, k := range []string{a, b, c} {
		if err := st.Put(k, res); err != nil {
			t.Fatal(err)
		}
	}
	// Refresh a: the eviction order must now be b, c (a is most recent).
	if _, ok, err := st.Get(a); err != nil || !ok {
		t.Fatalf("Get(a): ok=%v err=%v", ok, err)
	}
	info, _, err := st.Info(a)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.GC(GCPolicy{MaxBytes: 2 * info.Size})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed != 1 || rep.Kept != 2 {
		t.Fatalf("size eviction: %+v", rep)
	}
	if st.Has(b) {
		t.Error("b (least recently used) survived")
	}
	if !st.Has(a) || !st.Has(c) {
		t.Errorf("wrong survivors: a=%v c=%v", st.Has(a), st.Has(c))
	}
	// The compacted index must still serve recency on the next GC.
	if _, _, err := st.Info(c); err != nil {
		t.Fatal(err)
	}
}

func TestStoreGCSweepsTempFiles(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := runSpec(t, tinySpec)
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	// A crashed writer's stale temp versus a live writer's fresh one:
	// only the stale one may be swept.
	shard := filepath.Dir(st.objectPath(key))
	stale := filepath.Join(shard, ".put-crashed.tmp")
	fresh := filepath.Join(shard, ".put-inflight.tmp")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GC(GCPolicy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived GC")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("in-flight temp file was swept (age gate broken)")
	}
	if !st.Has(key) {
		t.Error("object evicted by a boundless GC")
	}
}

// TestStoreGCRemovesOrphanedVersions: a codec bump re-roots the store;
// GC reclaims the unreadable old tree (and only version-shaped
// directories).
func TestStoreGCRemovesOrphanedVersions(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, res := runSpec(t, tinySpec)
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	// Fabricate an old codec tree and an unrelated user directory.
	oldObj := filepath.Join(dir, "v0", "objects", "ab")
	if err := os.MkdirAll(oldObj, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(oldObj, key64(1)+".json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(dir, "notes")
	if err := os.MkdirAll(keep, 0o755); err != nil {
		t.Fatal(err)
	}
	// A NEWER version's tree (an upgraded binary's live store) must
	// survive a stale binary's GC.
	newer := filepath.Join(dir, "v999", "objects")
	if err := os.MkdirAll(newer, 0o755); err != nil {
		t.Fatal(err)
	}
	rep, err := st.GC(GCPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "v0")); !os.IsNotExist(err) {
		t.Error("orphaned v0 tree survived GC")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Error("non-version directory was removed")
	}
	if _, err := os.Stat(newer); err != nil {
		t.Error("a newer codec version's tree was removed by a stale binary's GC")
	}
	if !st.Has(key) {
		t.Error("current-version object was removed")
	}
	if rep.Removed != 1 {
		t.Errorf("report.Removed = %d, want 1 orphaned object", rep.Removed)
	}
}

// TestStorePutHealsCorruptObject: a corrupt object is replaced by a
// re-Put of the genuine result instead of being trusted forever.
func TestStorePutHealsCorruptObject(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := runSpec(t, tinySpec)
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.objectPath(key), []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(key); err == nil {
		t.Fatal("corrupt object decoded")
	}
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(key); err != nil || !ok {
		t.Fatalf("healed object unreadable: ok=%v err=%v", ok, err)
	}
	if problems, err := st.Verify(); err != nil || len(problems) != 0 {
		t.Errorf("verify after heal: problems=%v err=%v", problems, err)
	}
}

func TestStoreVerify(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := runSpec(t, tinySpec)
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if problems, err := st.Verify(); err != nil || len(problems) != 0 {
		t.Fatalf("clean store: problems=%v err=%v", problems, err)
	}

	// Bit rot: flip one byte of the archive.
	corrupt := key64(1)
	if err := st.Put(corrupt, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st.objectPath(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(st.objectPath(corrupt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Deletion outside gc: object indexed but gone.
	missing := key64(2)
	if err := st.Put(missing, res); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(st.objectPath(missing)); err != nil {
		t.Fatal(err)
	}
	// Unindexed garbage dropped at an object path.
	garbage := key64(3)
	if err := os.MkdirAll(filepath.Dir(st.objectPath(garbage)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.objectPath(garbage), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	problems, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]string{}
	for _, p := range problems {
		byKey[p.Key] = p.Msg
	}
	if len(problems) != 3 {
		t.Errorf("problems = %v, want 3", problems)
	}
	for key, want := range map[string]string{
		corrupt: "content hash mismatch",
		missing: "indexed object missing",
		garbage: "undecodable",
	} {
		if msg, ok := byKey[key]; !ok || !bytes.Contains([]byte(msg), []byte(want)) {
			t.Errorf("key %s: problem %q, want mention of %q", key[:8], msg, want)
		}
	}
}

// TestStoreConcurrentHandles hammers one directory through two Store
// handles (standing in for two palsweep processes) from 16 goroutines
// under -race: overlapping Puts and Gets over a small key space must
// never error, tear an object, or lose one.
func TestStoreConcurrentHandles(t *testing.T) {
	dir := t.TempDir()
	h1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, res := runSpec(t, tinySpec)

	const goroutines = 16
	const keySpace = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*8)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := h1
			if g%2 == 1 {
				st = h2
			}
			for i := 0; i < 8; i++ {
				key := key64(20 + (g+i)%keySpace)
				if err := st.Put(key, res); err != nil {
					errs <- err
					return
				}
				got, ok, err := st.Get(key)
				if err != nil {
					errs <- err
					return
				}
				if !ok || len(got.Jobs) != len(res.Jobs) {
					errs <- fmt.Errorf("goroutine %d: torn read: ok=%v", g, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n, _ := h1.Len(); n != keySpace {
		t.Errorf("Len = %d, want %d", n, keySpace)
	}
	if problems, err := h1.Verify(); err != nil || len(problems) != 0 {
		t.Errorf("post-stress verify: problems=%v err=%v", problems, err)
	}
}

// TestStoreShardContentionGridCells models two sweep shards meeting in
// one store directory: two handles concurrently Put overlapping but
// distinct grid cells, each side having simulated its cells
// independently (so the racing writes are equal-by-determinism, not
// pointer-identical). Afterwards every cell must load back
// byte-identical to the live computation (modulo PlaceTimes, the one
// wall-clock field) and the store must verify clean.
func TestStoreShardContentionGridCells(t *testing.T) {
	gridSrc := `{"name": "contend", "cluster": {"nodes": 2, "gpus_per_node": 4},
		"workload": {"source": "synthetic", "num_jobs": 12, "median_work_sec": 1800, "jobs_per_hour": 30},
		"grid": {"policies": ["pal", "packed-sticky"], "seeds": [1, 2, 3]}}`
	spec, err := scenario.Parse([]byte(gridSrc))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.ExpandGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("grid expanded to %d cells, want 6", len(cells))
	}

	// Simulate every cell twice, independently — one result set per
	// "process". Determinism makes the pairs equal except PlaceTimes.
	type cellRun struct {
		key  string
		resA *sim.Result
		resB *sim.Result
	}
	runs := make([]cellRun, len(cells))
	for i, c := range cells {
		src, err := c.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		keyA, resA := runSpec(t, string(src))
		keyB, resB := runSpec(t, string(src))
		if keyA != keyB {
			t.Fatalf("cell %s: independent builds keyed %s vs %s", c.Name, keyA, keyB)
		}
		runs[i] = cellRun{key: keyA, resA: resA, resB: resB}
	}

	dir := t.TempDir()
	h1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Handle 1 writes cells 0..3, handle 2 writes cells 2..5 — the
	// overlap (2, 3) races two valid encodings of the same key.
	var wg sync.WaitGroup
	errs := make(chan error, len(runs)*2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, r := range runs[:4] {
			if err := h1.Put(r.key, r.resA); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, r := range runs[2:] {
			if err := h2.Put(r.key, r.resB); err != nil {
				errs <- err
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every cell is present exactly once and loads back byte-identical
	// to the live computation, whichever writer won the overlap.
	neutral := func(res *sim.Result) []byte {
		cp := *res
		cp.PlaceTimes = nil // wall-clock placement durations, the one nondeterministic field
		var buf bytes.Buffer
		if err := export.EncodeResult(&buf, &cp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	h3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := h3.Len(); err != nil || n != len(runs) {
		t.Fatalf("Len = %d (err %v), want %d distinct cells", n, err, len(runs))
	}
	for i, r := range runs {
		if want := neutral(r.resA); !bytes.Equal(want, neutral(r.resB)) {
			t.Fatalf("cell %d: independent runs are not deterministic; contention check is vacuous", i)
		}
		got, ok, err := h3.Get(r.key)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("cell %d (%s) missing after contended puts", i, cells[i].Name)
		}
		if !bytes.Equal(neutral(got), neutral(r.resA)) {
			t.Errorf("cell %d (%s): loaded result differs from the live computation", i, cells[i].Name)
		}
	}
	if problems, err := h3.Verify(); err != nil || len(problems) != 0 {
		t.Errorf("post-contention verify: problems=%v err=%v", problems, err)
	}
}

// TestStorePutRestoresLostIndexMetadata: a crash between rename and
// index append loses a put record; re-Putting the identical result must
// re-record the content hash so Verify's bit-rot check is restored.
func TestStorePutRestoresLostIndexMetadata(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := runSpec(t, tinySpec)
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(st.index); err != nil { // simulate the lost append
		t.Fatal(err)
	}
	if err := st.Put(key, res); err != nil { // identical bytes: no rewrite, but metadata returns
		t.Fatal(err)
	}
	info, ok, err := st.Info(key)
	if err != nil || !ok {
		t.Fatalf("Info: ok=%v err=%v", ok, err)
	}
	if info.SHA256 == "" {
		t.Fatal("put record not restored")
	}
	// The restored hash must be live: same-length corruption is caught.
	data, err := os.ReadFile(st.objectPath(key))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(st.objectPath(key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := st.Verify()
	if err != nil || len(problems) != 1 {
		t.Fatalf("problems=%v err=%v, want the restored hash to catch corruption", problems, err)
	}
}

// TestStoreReadsIndentedObjects: earlier encoders wrote archives
// indented. Whitespace is not part of either format, so a store holding
// such objects (the same bytes, indexed with their own content hashes)
// verifies and serves them unchanged, and a re-Put rewrites each
// compact through Put's replace-on-difference path.
func TestStoreReadsIndentedObjects(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := runSpec(t, tinySpec)
	snap, _ := captureSpec(t, 5)
	var compactRes, compactSnap bytes.Buffer
	if err := export.EncodeResult(&compactRes, res); err != nil {
		t.Fatal(err)
	}
	if err := export.EncodeSnapshot(&compactSnap, snap); err != nil {
		t.Fatal(err)
	}
	indented := func(b *bytes.Buffer) []byte {
		var out bytes.Buffer
		if err := json.Indent(&out, b.Bytes(), "", " "); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if err := st.putBytes(key, indented(&compactRes)); err != nil {
		t.Fatal(err)
	}
	sub := st.snapTree()
	if err := os.MkdirAll(sub.objects, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := sub.putBytes(key, indented(&compactSnap)); err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		t.Helper()
		if problems, err := st.Verify(); err != nil || len(problems) != 0 {
			t.Fatalf("%s: verify: problems=%v err=%v", stage, problems, err)
		}
		gotRes, ok, err := st.Get(key)
		if err != nil || !ok || !reflect.DeepEqual(gotRes, res) {
			t.Fatalf("%s: result ok=%v err=%v, or not deep-equal", stage, ok, err)
		}
		gotSnap, ok, err := st.GetSnapshot(key)
		if err != nil || !ok || !reflect.DeepEqual(gotSnap, snap) {
			t.Fatalf("%s: snapshot ok=%v err=%v, or not deep-equal", stage, ok, err)
		}
	}
	check("indented")

	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if err := st.PutSnapshot(key, snap); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{
		st.objectPath(key):  compactRes.Bytes(),
		sub.objectPath(key): compactSnap.Bytes(),
	} {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s not rewritten compact (err=%v)", path, err)
		}
	}
	check("re-put")
}

// TestStoreIsStoreRoot: a store whose only tree belongs to an older
// codec must still be recognized (palstore gc reclaims it).
func TestStoreIsStoreRoot(t *testing.T) {
	dir := t.TempDir()
	if IsStoreRoot(dir) {
		t.Fatal("empty directory detected as store root")
	}
	if err := os.MkdirAll(filepath.Join(dir, "v0", "objects"), 0o755); err != nil {
		t.Fatal(err)
	}
	if IsStore(dir) {
		t.Fatal("old-version-only directory claims the current codec")
	}
	if !IsStoreRoot(dir) {
		t.Fatal("old-version store root not recognized")
	}
}

// TestStoreVerifyIgnoresAccessOnlyPhantoms: an access record whose
// object was GC-evicted (a touch racing a compaction) is bookkeeping
// noise, not damage — Verify must stay clean so the CI health gate
// cannot flake.
func TestStoreVerifyIgnoresAccessOnlyPhantoms(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := runSpec(t, tinySpec)
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	// Access record for a key with no object and no put record.
	phantom := key64(42)
	if err := st.appendIndexUnlocked(indexRecord{Op: opAccess, Key: phantom, UnixNano: time.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	if problems, err := st.Verify(); err != nil || len(problems) != 0 {
		t.Fatalf("phantom access flagged: problems=%v err=%v", problems, err)
	}
}

// TestStoreIndexTornLineTolerated: a crash mid-append leaves a partial
// trailing line; the store must keep working and GC must heal the index.
func TestStoreIndexTornLineTolerated(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := runSpec(t, tinySpec)
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(st.index, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"put","key":"deadbeef`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok, err := st.Get(key); err != nil || !ok {
		t.Fatalf("Get after torn append: ok=%v err=%v", ok, err)
	}
	if _, err := st.GC(GCPolicy{}); err != nil {
		t.Fatal(err)
	}
	if problems, err := st.Verify(); err != nil || len(problems) != 0 {
		t.Fatalf("verify after heal: problems=%v err=%v", problems, err)
	}
}

// TestStorePutNonFiniteWritesNothing: a result the codec refuses — a
// NaN or ±Inf in the core, the metrics payload or the decision trace —
// fails Put before the store is touched, leaving neither an object nor
// a temp file; the clean result then stores normally.
func TestStorePutNonFiniteWritesNothing(t *testing.T) {
	key, live := runSpec(t, `{"name": "tiny-sinks", "cluster": {"nodes": 2},
		"workload": {"source": "synthetic", "num_jobs": 12, "jobs_per_hour": 30},
		"policy": {"name": "packed-sticky"},
		"metrics": {"enabled": true}, "decisions": {"enabled": true}}`)
	data, err := export.MarshalResult(live)
	if err != nil {
		t.Fatal(err)
	}
	for name, poison := range map[string]func(*sim.Result){
		"core":      func(r *sim.Result) { r.Makespan = math.NaN() },
		"job":       func(r *sim.Result) { r.Jobs[0].Attained = math.Inf(1) },
		"metrics":   func(r *sim.Result) { metrics.FromResult(r).Series[0].Values[0] = math.Inf(-1) },
		"decisions": func(r *sim.Result) { decision.FromResult(r).Records[0].Start = math.NaN() },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			res, err := export.UnmarshalResult(data)
			if err != nil {
				t.Fatal(err)
			}
			poison(res)
			if err := st.Put(key, res); err == nil || !strings.Contains(err.Error(), "unsupported value") {
				t.Fatalf("Put of a non-finite result: err = %v", err)
			}
			var files []string
			err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() {
					files = append(files, path)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(files) > 0 || st.Has(key) {
				t.Fatalf("failed Put left files behind: %v", files)
			}
			if err := st.Put(key, live); err != nil || !st.Has(key) {
				t.Fatalf("clean Put after a refused one: %v", err)
			}
		})
	}
}
