package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cli"
	"repro/internal/journal"
	"repro/internal/scenario"
)

// journalTestSpec is a small single-run scenario: one simulation, one
// journal task span — the palsim shape (palsweep journals hold many).
const journalTestSpec = `{
  "name": "palsim-journal-test",
  "seed": 3,
  "cluster": {"nodes": 2, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 24, "jobs_per_hour": 12, "median_work_sec": 1800},
  "policy": {"name": "pal"}
}`

// openSession opens palsim's session over the store with a journal in
// journalDir, as main does for -store and -journal.
func openSession(t *testing.T, storeDir, journalDir string) *cli.Session {
	t.Helper()
	sess, err := cli.Open(cli.Options{Prog: "palsim", Workers: 1, StoreDir: storeDir, JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestSingleRunJournalReconciles pins the palsim half of the journal
// contract: a single-task journal written through palsim's shared
// session (one-worker pool, result cache, probed store, journal) must
// reconcile exactly with what palreport's TOTAL row derives from it —
// one task span, worker count 1, one store Get per task, and engine
// counters whose summary total equals both the task event's counters
// and the run's Result.Rounds. A warm re-run through the same store
// must journal a store-hit span with no counters (no engine stepped),
// which the reader reports as counter-less rather than fabricating
// zeros.
func TestSingleRunJournalReconciles(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(journalTestSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.LoadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")

	// Cold run: simulate, store, journal one executed span.
	coldDir := filepath.Join(dir, "journal-cold")
	sess := openSession(t, storeDir, coldDir)
	res, ctrs, err := run(sess, built)
	if err != nil {
		t.Fatal(err)
	}
	ranCounters := *ctrs
	sess.Finish()

	procs, err := journal.LoadDir(coldDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 {
		t.Fatalf("loaded %d journals, want 1", len(procs))
	}
	p := procs[0]
	if p.Header.Workers != 1 {
		t.Errorf("header workers = %d, want palsim's single worker", p.Header.Workers)
	}
	c := p.Counts()
	if c.Tasks != 1 || c.Executed != 1 || c.StoreHits != 0 || c.Errors != 0 {
		t.Errorf("cold-run tier counts %+v, want exactly one executed task", c)
	}
	if p.Summary == nil {
		t.Fatal("cold-run journal has no summary record")
	}
	if p.Summary.StoreGet == nil || p.Summary.StoreGet.Count != 1 || p.Summary.StoreGet.Misses != 1 {
		t.Errorf("store probe gets %+v, want one miss (one Get per task)", p.Summary.StoreGet)
	}
	if p.Summary.StorePut == nil || p.Summary.StorePut.Count != 1 {
		t.Errorf("store probe puts %+v, want the one result stored", p.Summary.StorePut)
	}
	ec, ok := p.EngineCounters()
	if !ok {
		t.Fatal("cold-run journal carries no engine counters")
	}
	if *ec != ranCounters {
		t.Errorf("journal engine counters %+v differ from the run's %+v", *ec, ranCounters)
	}
	if len(p.Tasks) != 1 || p.Tasks[0].Counters == nil || *p.Tasks[0].Counters != ranCounters {
		t.Error("task event does not carry the run's counters")
	}
	if got, want := ec.TotalRounds(), int64(res.Rounds); got != want {
		t.Errorf("engine counters report %d rounds, result reports %d", got, want)
	}
	if ec.TotalRounds() == 0 {
		t.Error("run stepped zero rounds; the spec must exercise the engine")
	}

	// Warm run: the store satisfies the task, so the span is a store hit
	// with no counters attached — no engine stepped in this process.
	warmDir := filepath.Join(dir, "journal-warm")
	sess = openSession(t, storeDir, warmDir)
	warmRes, _, err := run(sess, built)
	if err != nil {
		t.Fatal(err)
	}
	sess.Finish()
	if warmRes.Rounds != res.Rounds {
		t.Errorf("warm store hit returned %d rounds, cold run had %d", warmRes.Rounds, res.Rounds)
	}

	procs, err = journal.LoadDir(warmDir)
	if err != nil {
		t.Fatal(err)
	}
	p = procs[0]
	c = p.Counts()
	if c.Tasks != 1 || c.StoreHits != 1 || c.Executed != 0 {
		t.Errorf("warm-run tier counts %+v, want exactly one store hit", c)
	}
	if _, ok := p.EngineCounters(); ok {
		t.Error("store-hit journal reports engine counters; no engine stepped here")
	}
	if p.Summary == nil {
		t.Error("warm-run journal has no summary record")
	}
}
