package cli

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestSweepSummaryMilliseconds pins the closing line's resolution: a
// 42 ms warm sweep reads "0.042s total", not "0.0s total", and the line
// keeps the ", N simulated," field that scripts grep for.
func TestSweepSummaryMilliseconds(t *testing.T) {
	sess, err := Open(Options{Prog: "palsweep", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := sess.sweepSummary(3, "scenarios", 42*time.Millisecond)
	want := "palsweep: 3 scenarios, 0 simulated, 0 cache hits (0 memory, 0 store), 2 workers, 0.042s total"
	if got != want {
		t.Errorf("sweepSummary = %q, want %q", got, want)
	}
	if !strings.Contains(got, ", 0 simulated,") {
		t.Errorf("summary %q lost the \", 0 simulated,\" field", got)
	}
}

// TestOpenRejectsNegativeSizes: a negative -workers is a usage error
// naming the flag, not a silent run at the default size; 0 keeps
// meaning "default".
func TestOpenRejectsNegativeSizes(t *testing.T) {
	if _, err := Open(Options{Prog: "palsweep", Workers: -3}); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("Open(-workers -3): error %v, want one naming -workers", err)
	}
	sess, err := Open(Options{Prog: "palsweep"})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Pool.Workers() < 1 {
		t.Errorf("workers 0 gave a %d-worker pool, want the GOMAXPROCS default", sess.Pool.Workers())
	}
}

// TestCoreReadsSession: a CoreReads session serves store hits without
// payloads, journaled or not, while a default session over the same
// store reads them in full.
func TestCoreReadsSession(t *testing.T) {
	spec, err := scenario.Parse([]byte(`{"name": "core-session", "cluster": {"nodes": 2},
		"workload": {"source": "synthetic", "num_jobs": 12, "jobs_per_hour": 30},
		"policy": {"name": "packed-sticky"},
		"metrics": {"enabled": true}, "decisions": {"enabled": true}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(o Options) *sim.Result {
		t.Helper()
		o.Prog, o.StoreDir, o.Workers, o.Quiet = "test", dir, 1, true
		sess, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		sweep := runner.NewSweep(sess.Pool)
		sweep.AddTask(runner.Task{Key: b.Key(), Label: "cell", Run: b.Run})
		results, err := sweep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sess.Finish()
		return results[0]
	}
	if cold := run(Options{CoreReads: true}); cold.Metrics == nil || cold.Decisions == nil {
		t.Fatal("a fresh simulation lost its payloads")
	}
	for name, o := range map[string]Options{
		"core":           {CoreReads: true},
		"core-journaled": {CoreReads: true, JournalDir: t.TempDir()},
	} {
		if res := run(o); res.Metrics != nil || res.Decisions != nil || len(res.Jobs) == 0 {
			t.Errorf("%s: store hit carries payloads or lost its jobs", name)
		}
	}
	if full := run(Options{}); full.Metrics == nil || full.Decisions == nil {
		t.Error("full read lost the payloads")
	}
}
