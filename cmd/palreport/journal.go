package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/journal"
	"repro/internal/runner"
	"repro/internal/sim"
)

// runJournal renders the execution-journal tables from a directory of
// *.journal.jsonl files — the read side of palsweep/palsim -journal.
// N shard processes that swept one grid into a shared store each left
// one journal; here they merge into a cross-shard view: per-process
// tier hit rates, engine stepping-regime engagement, store-operation
// latency quantiles, the slowest cells across all shards, and
// per-worker utilization.
func runJournal(dir string, slowest int, format, outDir string) {
	procs, err := journal.LoadDir(dir)
	if err != nil {
		fatal(err)
	}
	for _, t := range []*experiments.Table{
		journalShardsTable(procs),
		journalEngineTable(procs),
		journalStoreTable(procs),
		journalSlowestTable(procs, slowest),
		journalWorkersTable(procs),
	} {
		if err := export.WriteTable(t, format, outDir); err != nil {
			fatal(err)
		}
	}
}

// journalShardsTable is the headline view: one row per process with its
// task counts by cache tier, wall clock and worker busyness, and a
// TOTAL row summing the tier counts across processes. The counts come
// from the task events; each complete process's summary counters are
// cross-checked against them, so a "counters diverge" note is a bug
// report, not a formatting choice.
func journalShardsTable(procs []*journal.Process) *experiments.Table {
	t := &experiments.Table{
		Name:  "journal_shards",
		Title: "per-process sweep execution (from journals)",
		Header: []string{"process", "workers", "tasks", "executed", "snapshot_forks",
			"memory_hits", "store_hits", "errors", "stored", "store_errors", "wall_s", "busy_pct", "complete"},
	}
	var tot journal.TierCounts
	var totStats runner.Stats
	var totStored, totStoreErrors int64
	complete := true
	for _, p := range procs {
		c := p.Counts()
		tot.Tasks += c.Tasks
		tot.Executed += c.Executed
		tot.SnapshotForks += c.SnapshotForks
		tot.MemoryHits += c.MemoryHits
		tot.StoreHits += c.StoreHits
		tot.Errors += c.Errors
		wall := p.WallMS() / 1000
		var busy float64
		for _, b := range p.WorkerBusy() {
			busy += b
		}
		busyPct := 0.0
		if wall > 0 && p.Header.Workers > 0 {
			busyPct = 100 * (busy / 1000) / (wall * float64(p.Header.Workers))
		}
		stored, storeErrors := "-", "-"
		done := "yes"
		if p.Summary == nil {
			done = "NO (crashed or cancelled)"
			complete = false
		} else {
			totStats.Submitted += p.Summary.Runner.Submitted
			totStats.Completed += p.Summary.Runner.Completed
			totStats.Executed += p.Summary.Runner.Executed
			totStats.CacheHits += p.Summary.Runner.CacheHits
			if cs := p.Summary.Cache; cs != nil {
				stored = fmt.Sprintf("%d", cs.Stored)
				storeErrors = fmt.Sprintf("%d", cs.StoreErrors)
				totStored += cs.Stored
				totStoreErrors += cs.StoreErrors
			}
			if p.Summary.StoreDetached {
				t.Note("%s: store DETACHED mid-sweep (circuit breaker); later results were not persisted", p.Name())
			}
			// The pool's Executed counter includes snapshot forks (their
			// Run closures ran); the journal breaks forks out by outcome.
			if c.Executed+c.SnapshotForks+c.Errors != p.Summary.Runner.Executed ||
				c.MemoryHits+c.StoreHits != p.Summary.Runner.CacheHits {
				t.Note("%s: counters diverge: task events say %d executed / %d hits, summary says %d / %d",
					p.Name(), c.Executed+c.SnapshotForks+c.Errors, c.MemoryHits+c.StoreHits,
					p.Summary.Runner.Executed, p.Summary.Runner.CacheHits)
			}
		}
		t.AddRowf(p.Name(), p.Header.Workers, c.Tasks, c.Executed, c.SnapshotForks,
			c.MemoryHits, c.StoreHits, c.Errors, stored, storeErrors, wall, busyPct, done)
	}
	t.AddRowf("TOTAL", "", tot.Tasks, tot.Executed, tot.SnapshotForks, tot.MemoryHits,
		tot.StoreHits, tot.Errors, totStored, totStoreErrors, "", "", "")
	if complete {
		t.Note("summary counters across processes: %d submitted, %d completed, %d executed, %d cache hits",
			totStats.Submitted, totStats.Completed, totStats.Executed, totStats.CacheHits)
	}
	return t
}

// journalEngineTable renders the engine-introspection view: per
// process, how the simulated rounds of its executed tasks split across
// the four stepping regimes, how often the placement-skip and
// incremental-ordering fast paths engaged, and how many prefix rounds
// snapshot resumes started past — the cross-shard aggregation of
// sim.Counters. Processes whose journals predate the counters field (or
// whose runs carried none) render "-" instead of fabricated zeros. Like
// the shards table, each complete process's summary total is
// cross-checked against the sum of its task events: a "counters
// diverge" note is a bug report.
func journalEngineTable(procs []*journal.Process) *experiments.Table {
	t := &experiments.Table{
		Name:  "journal_engine",
		Title: "engine stepping-regime engagement (from journal counters)",
		Header: []string{"process", "rounds", "materialized_pct", "idle_gap_pct",
			"sparse_pct", "dense_pct", "plc_skip_pct", "order_reval",
			"order_merges", "preempt", "migrate", "resumes", "resumed_rounds"},
	}
	tot := &sim.Counters{}
	counted := 0
	row := func(name string, c *sim.Counters, ok bool) {
		if !ok {
			t.AddRowf(name, "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-")
			return
		}
		total := c.TotalRounds()
		pct := func(n int64) string {
			if total == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", 100*float64(n)/float64(total))
		}
		skip := "-"
		if gated := c.PlacementsRun + c.PlacementsSkipped; gated > 0 {
			skip = fmt.Sprintf("%.1f", 100*float64(c.PlacementsSkipped)/float64(gated))
		}
		t.AddRowf(name, total, pct(c.MaterializedRounds), pct(c.IdleGapRounds),
			pct(c.SparseRounds), pct(c.DenseRounds), skip, c.OrderRevalidated,
			c.OrderMerges, c.Preemptions, c.Migrations, c.SnapshotsResumed,
			c.ResumedRounds)
	}
	for _, p := range procs {
		c, ok := p.EngineCounters()
		if ok {
			counted++
			tot.Add(c)
			// The summary total is the writer's accumulation over the same
			// spans the task events record, so the two must agree exactly
			// whenever both exist (all-int64 structs compare with ==).
			if p.Summary != nil && p.Summary.Engine != nil {
				var evSum sim.Counters
				saw := false
				for i := range p.Tasks {
					if tc := p.Tasks[i].Counters; tc != nil {
						evSum.Add(tc)
						saw = true
					}
				}
				if saw && evSum != *p.Summary.Engine {
					t.Note("%s: counters diverge: task events sum to %d rounds, summary says %d",
						p.Name(), evSum.TotalRounds(), p.Summary.Engine.TotalRounds())
				}
			}
		}
		row(p.Name(), c, ok)
	}
	row("TOTAL", tot, counted > 0)
	if counted == 0 {
		t.Note("no engine counters recorded (journals predate the counters field, or every task was a cache hit)")
	} else if counted < len(procs) {
		t.Note("%d of %d processes carried no engine counters (rendered \"-\")", len(procs)-counted, len(procs))
	}
	return t
}

// journalStoreTable aggregates the store probes: per-process get/put
// rows plus a TOTAL row merged bin-wise across processes (journals all
// share the probe's histogram shape, so the merge is exact).
func journalStoreTable(procs []*journal.Process) *experiments.Table {
	t := &experiments.Table{
		Name:  "journal_store",
		Title: "persistent-store operation latency (from journal store probes)",
		Header: []string{"process", "op", "count", "errors", "misses",
			"p50_ms", "p90_ms", "p99_ms", "max_ms", "p50_kb", "max_kb"},
	}
	var totGet, totPut *journal.OpStats
	rows := 0
	addRow := func(name, op string, s *journal.OpStats) {
		if s == nil {
			return
		}
		rows++
		lat := [4]string{"-", "-", "-", "-"}
		if h := s.LatencyMS; h != nil && h.N > 0 {
			lat = [4]string{
				fmt.Sprintf("%.2f", h.Quantile(50)),
				fmt.Sprintf("%.2f", h.Quantile(90)),
				fmt.Sprintf("%.2f", h.Quantile(99)),
				fmt.Sprintf("%.2f", h.Max),
			}
		}
		size := [2]string{"-", "-"}
		if h := s.Bytes; h != nil && h.N > 0 {
			size = [2]string{
				fmt.Sprintf("%.1f", h.Quantile(50)/1024),
				fmt.Sprintf("%.1f", h.Max/1024),
			}
		}
		t.AddRowf(name, op, s.Count, s.Errors, s.Misses,
			lat[0], lat[1], lat[2], lat[3], size[0], size[1])
	}
	for _, p := range procs {
		if p.Summary == nil {
			continue
		}
		addRow(p.Name(), "get", p.Summary.StoreGet)
		addRow(p.Name(), "put", p.Summary.StorePut)
		totGet = journal.MergeOps(totGet, p.Summary.StoreGet)
		totPut = journal.MergeOps(totPut, p.Summary.StorePut)
	}
	addRow("TOTAL", "get", totGet)
	addRow("TOTAL", "put", totPut)
	if rows == 0 {
		t.Note("no store probes recorded (sweep ran without -store, or no process finished cleanly)")
	}
	return t
}

// journalSlowestTable ranks the n longest tasks across every process —
// the straggler cells of a sharded sweep.
func journalSlowestTable(procs []*journal.Process, n int) *experiments.Table {
	t := &experiments.Table{
		Name:  "journal_slowest",
		Title: fmt.Sprintf("%d slowest tasks across all processes", n),
		Header: []string{"rank", "process", "label", "key", "outcome",
			"worker", "run_ms", "dur_ms"},
	}
	for i, s := range journal.SlowestTasks(procs, n) {
		key := s.Task.Key
		if len(key) > 16 {
			key = key[:16]
		}
		t.AddRowf(i+1, s.Proc.Name(), s.Task.Label, key, s.Task.Outcome,
			s.Task.Worker, s.Task.RunMS, s.Task.DurMS)
	}
	return t
}

// journalWorkersTable breaks each process down by worker slot: tasks
// carried and busy time against the process's wall clock.
func journalWorkersTable(procs []*journal.Process) *experiments.Table {
	t := &experiments.Table{
		Name:   "journal_workers",
		Title:  "per-worker utilization (from journals)",
		Header: []string{"process", "worker", "tasks", "busy_s", "util_pct"},
	}
	for _, p := range procs {
		wall := p.WallMS()
		busy := p.WorkerBusy()
		perWorker := make(map[int]int64)
		for _, ev := range p.Tasks {
			perWorker[ev.Worker]++
		}
		for w := 0; w < p.Header.Workers; w++ {
			util := 0.0
			if wall > 0 {
				util = 100 * busy[w] / wall
			}
			t.AddRowf(p.Name(), w, perWorker[w], busy[w]/1000, util)
		}
	}
	return t
}
