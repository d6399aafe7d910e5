package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/runner"
	"repro/internal/sim"
)

// span builds one executed-task span carrying counters, the shape
// palsweep's probe emits for a simulated cell.
func span(key string, worker int, c *sim.Counters) runner.TaskSpan {
	return runner.TaskSpan{
		Key: key, Label: "cell-" + key, Worker: worker,
		Outcome: runner.OutcomeExecuted, Start: time.Now(),
		Duration: 5 * time.Millisecond, Run: 4 * time.Millisecond,
		Counters: c,
	}
}

// TestJournalEngineTableReconciles pins the stepping-engagement table
// against a synthetic 2-shard sweep: one row per shard whose rounds
// cell equals that shard's summed counters, a TOTAL row equal to the
// cross-shard sum, and no divergence notes when summaries agree with
// task events — the reconciliation the acceptance criteria name.
func TestJournalEngineTableReconciles(t *testing.T) {
	dir := t.TempDir()
	shardCtrs := [][]*sim.Counters{
		{
			{MaterializedRounds: 100, SparseRounds: 50, DenseRounds: 10, IdleGapRounds: 5,
				PlacementsRun: 60, PlacementsSkipped: 40, OrderRevalidated: 7, OrderMerges: 3},
			{MaterializedRounds: 30, SparseRounds: 20, Preemptions: 2, Migrations: 4},
		},
		{
			{MaterializedRounds: 200, DenseRounds: 80, SnapshotsResumed: 1, ResumedRounds: 25,
				PlacementsRun: 100, OrderRevalidated: 11},
		},
	}
	wantShard := make([]sim.Counters, len(shardCtrs))
	var wantTotal sim.Counters
	for i, ctrs := range shardCtrs {
		jw, err := journal.Create(dir, journal.Header{
			Role: "palsweep", Shard: fmt.Sprintf("%d/%d", i, len(shardCtrs)), Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range ctrs {
			jw.ObserveTask(span(fmt.Sprintf("s%dc%d", i, j), j%2, c))
			wantShard[i].Add(c)
			wantTotal.Add(c)
		}
		// A cache hit carries no counters and must not disturb the sums.
		jw.ObserveTask(runner.TaskSpan{Key: "hit", Worker: 0, Outcome: runner.OutcomeMemoryHit,
			Start: time.Now(), Duration: time.Millisecond})
		if err := jw.Close(journal.Summary{}); err != nil {
			t.Fatal(err)
		}
	}

	procs, err := journal.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != len(shardCtrs) {
		t.Fatalf("loaded %d journals, want %d", len(procs), len(shardCtrs))
	}
	for i, p := range procs {
		ec, ok := p.EngineCounters()
		if !ok || *ec != wantShard[i] {
			t.Errorf("shard %d: EngineCounters = %+v (ok=%v), want %+v", i, ec, ok, wantShard[i])
		}
	}

	table := journalEngineTable(procs)
	if got, want := len(table.Rows), len(shardCtrs)+1; got != want {
		t.Fatalf("engine table has %d rows, want %d shards + TOTAL = %d", got, len(shardCtrs), want)
	}
	for i := range shardCtrs {
		row := table.Rows[i]
		if want := fmt.Sprint(wantShard[i].TotalRounds()); row[1] != want {
			t.Errorf("shard %d row reports %s rounds, summary counters say %s", i, row[1], want)
		}
	}
	totalRow := table.Rows[len(table.Rows)-1]
	if totalRow[0] != "TOTAL" {
		t.Fatalf("last row is %q, want TOTAL", totalRow[0])
	}
	if want := fmt.Sprint(wantTotal.TotalRounds()); totalRow[1] != want {
		t.Errorf("TOTAL row reports %s rounds, cross-shard sum is %s", totalRow[1], want)
	}
	if table.Header[12] != "resumed_rounds" {
		t.Errorf("column 12 is %q, want resumed_rounds", table.Header[12])
	}
	if want := fmt.Sprint(wantTotal.ResumedRounds); totalRow[12] != want {
		t.Errorf("TOTAL resumed_rounds = %s, want %s", totalRow[12], want)
	}
	for _, n := range table.Notes {
		if strings.Contains(n, "diverge") {
			t.Errorf("consistent journals produced a divergence note: %q", n)
		}
	}
}

// TestJournalEngineTableDivergenceNote: a summary whose engine total
// disagrees with the task events must surface as a "counters diverge"
// note — a bug report, never silently reconciled.
func TestJournalEngineTableDivergenceNote(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Header{Role: "palsweep", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	jw.ObserveTask(span("a", 0, &sim.Counters{MaterializedRounds: 10}))
	// Close with an explicit (wrong) engine total: the writer honors a
	// caller-provided summary rather than overwriting it.
	if err := jw.Close(journal.Summary{Engine: &sim.Counters{MaterializedRounds: 999}}); err != nil {
		t.Fatal(err)
	}
	procs, err := journal.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	table := journalEngineTable(procs)
	found := false
	for _, n := range table.Notes {
		if strings.Contains(n, "counters diverge") {
			found = true
		}
	}
	if !found {
		t.Errorf("mismatched summary produced no divergence note; notes: %v", table.Notes)
	}
}

// TestJournalEngineTablePreCounterJournal is the forward-compatibility
// gate: a journal written before the counters field existed (no
// "counters" on task events, no "engine" in the summary) must load
// cleanly, report no engine counters, and render "-" cells in the
// engagement table instead of fabricated zeros.
func TestJournalEngineTablePreCounterJournal(t *testing.T) {
	dir := t.TempDir()
	lines := []string{
		`{"type":"header","v":1,"role":"palsweep","shard":"0/1","workers":2,"pid":123,"start_ms":1000}`,
		`{"type":"task","key":"abc","label":"cell-a","worker":0,"outcome":"executed","start_ms":1005,"dur_ms":12.5,"run_ms":11.0}`,
		`{"type":"task","key":"def","label":"cell-b","worker":1,"outcome":"store-hit","start_ms":1006,"dur_ms":1.5}`,
		`{"type":"summary","end_ms":2000,"runner":{"Submitted":2,"Completed":2,"Executed":1,"CacheHits":1}}`,
	}
	path := filepath.Join(dir, "old"+journal.Ext)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	procs, err := journal.LoadDir(dir)
	if err != nil {
		t.Fatalf("pre-counter journal failed to load: %v", err)
	}
	p := procs[0]
	if len(p.Tasks) != 2 || p.Summary == nil {
		t.Fatalf("pre-counter journal loaded %d tasks (summary=%v), want 2 tasks with a summary",
			len(p.Tasks), p.Summary != nil)
	}
	if ec, ok := p.EngineCounters(); ok {
		t.Fatalf("pre-counter journal reports engine counters %+v; want none", ec)
	}

	table := journalEngineTable(procs)
	if got, want := len(table.Rows), 2; got != want {
		t.Fatalf("engine table has %d rows, want process + TOTAL = %d", got, want)
	}
	for _, row := range table.Rows {
		for i, cell := range row[1:] {
			if cell != "-" {
				t.Errorf("row %q column %d = %q, want \"-\" for a pre-counter journal",
					row[0], i+1, cell)
			}
		}
	}
	found := false
	for _, n := range table.Notes {
		if strings.Contains(n, "no engine counters recorded") {
			found = true
		}
	}
	if !found {
		t.Errorf("counter-less table should note why every cell is \"-\"; notes: %v", table.Notes)
	}
}

// TestJournalFigureSweep journals a quick figure sweep the way palsweep
// runs one — several experiments at once on one session pool — and
// pins two facts its tables once got wrong: every executed figure cell
// carries engine counters, so journal_engine has numbers (it printed
// "no engine counters recorded"), and no worker slot is busier than
// the process's wall clock, so no util_pct exceeds 100 (concurrent
// sweeps used to report the same per-sweep worker indexes).
func TestJournalFigureSweep(t *testing.T) {
	dir := t.TempDir()
	sess, err := cli.Open(cli.Options{Prog: "palsweep", Workers: 2, JournalDir: dir, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	prev := experiments.SetPool(sess.Pool)
	defer experiments.SetPool(prev)
	names := []string{"fig14", "fig19", "table04", "fig09", "ablation_rack"}
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = experiments.RunByName(name, experiments.QuickScale())
		}()
	}
	wg.Wait()
	sess.Finish()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
	}
	procs, err := journal.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 {
		t.Fatalf("loaded %d journals, want 1", len(procs))
	}
	executed, counted := 0, 0
	for _, ev := range procs[0].Tasks {
		if ev.Outcome == string(runner.OutcomeExecuted) {
			executed++
			if ev.Counters != nil {
				counted++
			}
		}
	}
	if executed == 0 || counted != executed {
		t.Errorf("%d of %d executed figure cells carried engine counters", counted, executed)
	}
	engine := journalEngineTable(procs)
	for _, row := range engine.Rows {
		if row[1] == "-" {
			t.Errorf("journal_engine row %q has no rounds: %v (notes %v)", row[0], row, engine.Notes)
		}
	}
	workers := journalWorkersTable(procs)
	if len(workers.Rows) != 2 {
		t.Fatalf("journal_workers has %d rows, want one per worker slot (2)", len(workers.Rows))
	}
	for _, row := range workers.Rows {
		util, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if util > 100 {
			t.Errorf("worker %s util_pct %s exceeds 100", row[1], row[4])
		}
	}
}
