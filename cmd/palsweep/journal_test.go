package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
)

// runCellsJournaled mirrors runCells with the full -journal wiring:
// store wrapped by the latency probe, pool observed by a journal
// writer, a fresh engine-counter instance attached per cell, and the
// summary record written on completion — the exact plumbing main()
// sets up.
func runCellsJournaled(tb testing.TB, cells []scenarioCell, st *store.Store, journalDir, shard string) ([]*sim.Result, runner.Stats) {
	tb.Helper()
	cache := runner.NewResultCache(0)
	var probe *journal.BackendProbe
	if st != nil {
		var backend runner.Backend = st
		if journalDir != "" {
			probe = journal.ProbeBackend(st)
			backend = probe
		}
		cache.SetBackend(backend)
	}
	pool := runner.NewPool(4, cache)
	var jw *journal.Writer
	if journalDir != "" {
		var err error
		jw, err = journal.Create(journalDir, journal.Header{Role: "palsweep", Shard: shard, Workers: pool.Workers()})
		if err != nil {
			tb.Fatal(err)
		}
		pool.SetProbe(jw)
	}
	sweep := runner.NewSweep(pool)
	for _, c := range cells {
		run := c.built
		ctrs := &sim.Counters{}
		run.Counters = ctrs
		sweep.AddTask(runner.Task{
			Key:      run.Key(),
			Label:    run.Spec.Name,
			Run:      func() (*sim.Result, error) { return run.Run() },
			Counters: func() *sim.Counters { return ctrs },
		})
	}
	results, err := sweep.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	if jw != nil {
		cs := cache.Stats()
		sum := journal.Summary{Runner: pool.Stats(), Cache: &cs, StoreDetached: cache.BackendDetached()}
		if probe != nil {
			sum.StoreGet, sum.StorePut = probe.Stats()
		}
		if err := jw.Close(sum); err != nil {
			tb.Fatal(err)
		}
	}
	return results, pool.Stats()
}

// TestProbeDoesNotPerturbSweep is the journal's byte-identity suite:
// attaching the probe, the store latency wrapper and the journal writer
// must not change a single result byte or table character, unsharded or
// sharded — journals are pure wall-clock observation, outside results
// and cache keys. It also pins the acceptance identity: the task events
// across all journals reconcile exactly with the pools' counters.
func TestProbeDoesNotPerturbSweep(t *testing.T) {
	dir := t.TempDir()
	specPath := writeShardGrid(t, dir)
	cells, err := loadScenarioCells([]string{specPath}, false, false)
	if err != nil {
		t.Fatal(err)
	}

	// Unjournaled, storeless reference.
	refResults, _ := runCells(t, cells, nil)
	refTable, _, err := scenarioTable(cells, refResults, "")
	if err != nil {
		t.Fatal(err)
	}
	refByKey := make(map[string][]byte, len(cells))
	for i, c := range cells {
		refByKey[c.built.Key()] = encodeResult(t, refResults[i])
	}

	// Journaled unsharded sweep through a store: byte-identical results
	// and table.
	st, err := store.Open(filepath.Join(dir, "store-unsharded"))
	if err != nil {
		t.Fatal(err)
	}
	journalDir := filepath.Join(dir, "journal")
	jResults, jStats := runCellsJournaled(t, cells, st, journalDir, "")
	roundsFor := map[string]int64{}
	for _, r := range jResults {
		roundsFor[""] += int64(r.Rounds)
	}
	for i, c := range cells {
		if !bytes.Equal(encodeResult(t, jResults[i]), refByKey[c.built.Key()]) {
			t.Errorf("cell %s: journaled result differs from unjournaled reference", c.built.Spec.Name)
		}
	}
	jTable, _, err := scenarioTable(cells, jResults, "")
	if err != nil {
		t.Fatal(err)
	}
	if refTable.String() != jTable.String() {
		t.Errorf("journaled table differs from unjournaled reference:\n--- plain\n%s\n--- journaled\n%s",
			refTable.String(), jTable.String())
	}

	// Journaled sharded sweep into a fresh shared store: the union stays
	// byte-identical too, and each shard leaves its own journal.
	const n = 2
	shardStore := filepath.Join(dir, "store-sharded")
	shardStats := make([]runner.Stats, n)
	for i := 0; i < n; i++ {
		kept := filterShard(cells, shardSpec{index: i, count: n})
		sst, err := store.Open(shardStore)
		if err != nil {
			t.Fatal(err)
		}
		results, stats := runCellsJournaled(t, kept, sst, journalDir, shardName(i, n))
		shardStats[i] = stats
		for _, r := range results {
			roundsFor[shardName(i, n)] += int64(r.Rounds)
		}
		for j, c := range kept {
			if !bytes.Equal(encodeResult(t, results[j]), refByKey[c.built.Key()]) {
				t.Errorf("shard %d/%d cell %s: journaled result differs from reference", i, n, c.built.Spec.Name)
			}
		}
	}

	// The acceptance identity: per-process task events reconcile exactly
	// with the pools' runner.Stats — executed+error events equal
	// Stats.Executed, memory+store hits equal Stats.CacheHits, and every
	// process carries a summary whose counters agree.
	procs, err := journal.LoadDir(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1+n {
		t.Fatalf("loaded %d journals, want %d", len(procs), 1+n)
	}
	statsFor := map[string]runner.Stats{"": jStats}
	for i := 0; i < n; i++ {
		statsFor[shardName(i, n)] = shardStats[i]
	}
	for _, p := range procs {
		want, ok := statsFor[p.Header.Shard]
		if !ok {
			t.Fatalf("journal %s: unexpected shard %q", p.Path, p.Header.Shard)
		}
		c := p.Counts()
		if c.Executed+c.Errors != want.Executed || c.MemoryHits+c.StoreHits != want.CacheHits ||
			c.Tasks != want.Completed {
			t.Errorf("%s: task events (%+v) do not reconcile with pool stats (%+v)", p.Name(), c, want)
		}
		if p.Summary == nil {
			t.Fatalf("%s: no summary record", p.Name())
		}
		if p.Summary.Runner != want {
			t.Errorf("%s: summary runner stats %+v, want %+v", p.Name(), p.Summary.Runner, want)
		}
		if p.Summary.StoreGet == nil || p.Summary.StoreGet.Count != want.Completed {
			t.Errorf("%s: store probe saw %+v gets, want one per task (%d)",
				p.Name(), p.Summary.StoreGet, want.Completed)
		}
		if p.Summary.StoreDetached {
			t.Errorf("%s: store reported detached on a healthy backend", p.Name())
		}

		// Engine-counter reconciliation (the stepping-engagement table's
		// raw material): every task here executed, so the journal must
		// carry counters, and the process's total stepped rounds must
		// equal the sum of its results' Rounds exactly — fresh runs, no
		// snapshot resumes.
		ec, ok := p.EngineCounters()
		if !ok || ec == nil {
			t.Fatalf("%s: journal carries no engine counters", p.Name())
		}
		if got, want := ec.TotalRounds(), roundsFor[p.Header.Shard]; got != want {
			t.Errorf("%s: engine counters report %d rounds, results report %d",
				p.Name(), got, want)
		}
	}

	// Cross-shard reconciliation: the two shard journals' counters sum to
	// exactly the unsharded journal's — the same cells stepped the same
	// rounds whichever process carried them (determinism), which is the
	// identity the palreport TOTAL row relies on.
	var shardTotal, unsharded sim.Counters
	for _, p := range procs {
		ec, _ := p.EngineCounters()
		if p.Header.Shard == "" {
			unsharded = *ec
		} else {
			shardTotal.Add(ec)
		}
	}
	if shardTotal != unsharded {
		t.Errorf("sharded counters %+v do not sum to the unsharded sweep's %+v", shardTotal, unsharded)
	}
}

func shardName(i, n int) string { return fmt.Sprintf("%d/%d", i, n) }

// benchGridSpec is the overhead-bench grid: the same 8-cell shape as
// the test grid but with a 128-job workload per cell, so one sweep runs
// tens of milliseconds and the journal's per-task cost (a JSON marshal
// and one append) is measured against real work, not directory-creation
// jitter.
const benchGridSpec = `{
  "name": "journal-bench",
  "cluster": {"nodes": 2, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 128, "median_work_sec": 1800},
  "grid": {
    "policies": ["pal", "packed-sticky"],
    "seeds": [1, 2],
    "jobs_per_hour": [30, 60]
  }
}`

// BenchmarkJournalOverhead times the bench grid swept cold (fresh
// store) and warm (fully populated store) with and without the journal
// attached, and reports the overhead percentages — the number the
// orchestration-observability invariant pins near zero (CI archives
// these as BENCH_journal.json). Best-of-5 per corner to keep scheduler
// hiccups from dominating a 1x run.
func BenchmarkJournalOverhead(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(path, []byte(benchGridSpec), 0o644); err != nil {
		b.Fatal(err)
	}
	cells, err := loadScenarioCells([]string{path}, false, false)
	if err != nil {
		b.Fatal(err)
	}
	sweepOnce := func(storeDir, journalDir string) time.Duration {
		st, err := store.Open(storeDir)
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		runCellsJournaled(b, cells, st, journalDir, "")
		return time.Since(t0)
	}
	bestOf := func(k int, f func(i int) time.Duration) time.Duration {
		best := f(0)
		for i := 1; i < k; i++ {
			if d := f(i); d < best {
				best = d
			}
		}
		return best
	}
	for i := 0; i < b.N; i++ {
		coldOff := bestOf(5, func(j int) time.Duration {
			return sweepOnce(filepath.Join(dir, fmt.Sprintf("cold-off-%d-%d", i, j)), "")
		})
		coldOn := bestOf(5, func(j int) time.Duration {
			return sweepOnce(filepath.Join(dir, fmt.Sprintf("cold-on-%d-%d", i, j)), filepath.Join(dir, "journal"))
		})
		warmStore := filepath.Join(dir, fmt.Sprintf("warm-store-%d", i))
		sweepOnce(warmStore, "") // populate once
		warmOff := bestOf(5, func(int) time.Duration { return sweepOnce(warmStore, "") })
		warmOn := bestOf(5, func(int) time.Duration { return sweepOnce(warmStore, filepath.Join(dir, "journal")) })
		b.ReportMetric(coldOn.Seconds()*1000, "cold-on-ms")
		b.ReportMetric(coldOff.Seconds()*1000, "cold-off-ms")
		b.ReportMetric(100*(coldOn.Seconds()-coldOff.Seconds())/coldOff.Seconds(), "cold-overhead-pct")
		b.ReportMetric(warmOn.Seconds()*1000, "warm-on-ms")
		b.ReportMetric(warmOff.Seconds()*1000, "warm-off-ms")
		b.ReportMetric(100*(warmOn.Seconds()-warmOff.Seconds())/warmOff.Seconds(), "warm-overhead-pct")
	}
}
