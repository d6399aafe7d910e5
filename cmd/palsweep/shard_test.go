package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/export"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
)

// shardGridSpec is the test grid: 2 policies x 2 seeds x 2 arrival
// rates = 8 cells over a tiny synthetic workload, so the whole suite
// simulates in well under a second per pass.
const shardGridSpec = `{
  "name": "shard-test",
  "cluster": {"nodes": 2, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 16, "median_work_sec": 1800},
  "grid": {
    "policies": ["pal", "packed-sticky"],
    "seeds": [1, 2],
    "jobs_per_hour": [30, 60]
  }
}`

// writeShardGrid writes the test grid spec into a temp dir and returns
// its path.
func writeShardGrid(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(path, []byte(shardGridSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCells executes the given cells through a fresh pool and cache,
// optionally backed by a store handle, and returns the results in cell
// order plus the pool's counters.
func runCells(t *testing.T, cells []scenarioCell, st *store.Store) ([]*sim.Result, runner.Stats) {
	t.Helper()
	cache := runner.NewResultCache(0)
	if st != nil {
		cache.SetBackend(st)
	}
	pool := runner.NewPool(4, cache)
	sweep := runner.NewSweep(pool)
	for _, c := range cells {
		run := c.built
		sweep.AddTask(runner.Task{Key: run.Key(), Label: run.Spec.Name, Run: run.Run})
	}
	results, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return results, pool.Stats()
}

// encodeResult canonicalizes a result to the archive codec's bytes —
// the repo's byte-identity currency for whole results, metrics payload
// included. PlaceTimes is the one sanctioned exception: it records the
// wall-clock duration of each placement call, genuinely nondeterministic
// across independent processes, so it is neutralized before encoding.
func encodeResult(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	cp := *res
	cp.PlaceTimes = nil
	var buf bytes.Buffer
	if err := export.EncodeResult(&buf, &cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedSweepByteIdentical is the cross-process equivalence suite
// for sharded sweeps, built like the engine's stepping-equivalence
// tests: the union of shards 0/3, 1/3 and 2/3 — each run with its own
// pool, cache and store handle, meeting only in the shared store
// directory — must deep-equal (byte-identically, under the archive
// codec) an unsharded reference sweep; a follow-up unsharded pass over
// the shared store must simulate nothing and render a byte-identical
// table; and a repeat of any single shard must also report 0 simulated.
func TestShardedSweepByteIdentical(t *testing.T) {
	dir := t.TempDir()
	specPath := writeShardGrid(t, dir)

	cells, err := loadScenarioCells([]string{specPath}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("grid expanded to %d cells, want 8", len(cells))
	}

	// Unsharded reference: no store, everything simulated in-process.
	refResults, refStats := runCells(t, cells, nil)
	if refStats.Executed != int64(len(cells)) {
		t.Fatalf("reference run executed %d of %d cells", refStats.Executed, len(cells))
	}
	refTable, _, err := scenarioTable(cells, refResults, "")
	if err != nil {
		t.Fatal(err)
	}
	refByKey := make(map[string][]byte, len(cells))
	for i, c := range cells {
		refByKey[c.built.Key()] = encodeResult(t, refResults[i])
	}

	// Three shard "processes": independent pools, caches and store
	// handles over one shared directory.
	const n = 3
	storeDir := filepath.Join(dir, "store")
	unionByKey := make(map[string][]byte, len(cells))
	covered := 0
	for i := 0; i < n; i++ {
		kept := filterShard(cells, shardSpec{index: i, count: n})
		st, err := store.Open(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		results, stats := runCells(t, kept, st)
		if stats.Executed != int64(len(kept)) {
			t.Errorf("shard %d/%d executed %d of its %d cells", i, n, stats.Executed, len(kept))
		}
		for j, c := range kept {
			key := c.built.Key()
			if _, dup := unionByKey[key]; dup {
				t.Fatalf("cell %s assigned to more than one shard", c.built.Spec.Name)
			}
			unionByKey[key] = encodeResult(t, results[j])
		}
		covered += len(kept)
	}
	if covered != len(cells) {
		t.Fatalf("shards covered %d of %d cells (partition must be exhaustive)", covered, len(cells))
	}

	// Union of shards deep-equals the unsharded sweep, cell by cell.
	for _, c := range cells {
		key := c.built.Key()
		if !bytes.Equal(unionByKey[key], refByKey[key]) {
			t.Errorf("cell %s: sharded result differs from unsharded reference", c.built.Spec.Name)
		}
	}

	// An unsharded pass over the shared store simulates nothing and
	// renders a byte-identical table — the shards really met in the
	// store.
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	mergedResults, mergedStats := runCells(t, cells, st)
	if mergedStats.Executed != 0 {
		t.Errorf("merged pass over the shared store executed %d simulations, want 0", mergedStats.Executed)
	}
	mergedTable, _, err := scenarioTable(cells, mergedResults, "")
	if err != nil {
		t.Fatal(err)
	}
	if refTable.String() != mergedTable.String() {
		t.Errorf("merged table differs from unsharded reference:\n--- unsharded\n%s\n--- merged\n%s",
			refTable.String(), mergedTable.String())
	}

	// A repeat of one shard over an unchanged grid also reports
	// 0 simulated — the warm-start acceptance criterion, per shard.
	st2, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	_, repeatStats := runCells(t, filterShard(cells, shardSpec{index: 0, count: n}), st2)
	if repeatStats.Executed != 0 {
		t.Errorf("repeat shard 0/%d executed %d simulations, want 0", n, repeatStats.Executed)
	}

	// The store the shards met in verifies clean.
	if problems := storeVerify(t, storeDir); len(problems) > 0 {
		t.Errorf("shared store failed verification: %v", problems)
	}
}

// storeVerify re-hashes and decodes every object in the store, mirroring
// `palstore verify`.
func storeVerify(t *testing.T, dir string) []store.Problem {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	return problems
}

// TestShardFilterDeterministic: the shard partition depends only on
// cell keys — reversing enumeration order must select the same cells.
func TestShardFilterDeterministic(t *testing.T) {
	dir := t.TempDir()
	specPath := writeShardGrid(t, dir)
	cells, err := loadScenarioCells([]string{specPath}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]scenarioCell, len(cells))
	for i, c := range cells {
		reversed[len(cells)-1-i] = c
	}
	for i := 0; i < 3; i++ {
		sh := shardSpec{index: i, count: 3}
		forward := map[string]bool{}
		for _, c := range filterShard(cells, sh) {
			forward[c.built.Key()] = true
		}
		backward := map[string]bool{}
		for _, c := range filterShard(reversed, sh) {
			backward[c.built.Key()] = true
		}
		if len(forward) != len(backward) {
			t.Fatalf("shard %d selects %d cells forward, %d reversed", i, len(forward), len(backward))
		}
		for k := range forward {
			if !backward[k] {
				t.Errorf("shard %d: key %s selected forward but not reversed", i, k[:16])
			}
		}
	}
}

// TestParseShard: every malformed selector is rejected with a message
// stating the value and the expected range, per the house style.
func TestParseShard(t *testing.T) {
	good := []struct {
		in   string
		want shardSpec
	}{
		{"", shardSpec{}},
		{"0/1", shardSpec{index: 0, count: 1}},
		{"0/4", shardSpec{index: 0, count: 4}},
		{"3/4", shardSpec{index: 3, count: 4}},
	}
	for _, g := range good {
		got, err := parseShard(g.in)
		if err != nil {
			t.Errorf("parseShard(%q): %v", g.in, err)
		}
		if got != g.want {
			t.Errorf("parseShard(%q) = %+v, want %+v", g.in, got, g.want)
		}
	}
	bad := []struct {
		in   string
		want []string // substrings the error must contain
	}{
		{"4", []string{`"4"`, "i/n"}},
		{"a/b", []string{`"a"`, "integer"}},
		{"1/b", []string{`"b"`, "integer"}},
		{"0/0", []string{"count 0", "want >= 1"}},
		{"0/-2", []string{"count -2", "want >= 1"}},
		{"-1/4", []string{"index -1", "0 <= index < 4"}},
		{"4/4", []string{"index 4", "0 <= index < 4"}},
		{"1/2/3", []string{"integer"}},
	}
	for _, b := range bad {
		_, err := parseShard(b.in)
		if err == nil {
			t.Errorf("parseShard(%q) accepted an invalid selector", b.in)
			continue
		}
		for _, want := range b.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("parseShard(%q) error %q does not state %q", b.in, err, want)
			}
		}
	}
}
