package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// childEnv makes a re-executed test binary run one journaled cell the
// way palsim does, instead of the tests; its value names the journal
// file ("" journals nowhere).
const childEnv = "CLI_TEST_JOURNAL_CHILD"

func TestMain(m *testing.M) {
	if path, ok := os.LookupEnv(childEnv); ok {
		if err := runChild(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runChild runs one cell through a palsim-like session whose journal
// writes into the already-open file at path, prints the cell's JCTs to
// stdout and closes the session as palsim does.
func runChild(path string) error {
	spec, err := scenario.Parse([]byte(`{"name": "journal-fault", "cluster": {"nodes": 2},
		"workload": {"source": "synthetic", "num_jobs": 12, "jobs_per_hour": 30}}`))
	if err != nil {
		return err
	}
	b, err := spec.Build()
	if err != nil {
		return err
	}
	sess, err := Open(Options{Prog: "palsim", Workers: 1, Quiet: true})
	if err != nil {
		return err
	}
	if path != "" {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		sess.jw = journal.NewWriter(f, path)
		sess.Pool.SetProbe(sess.jw)
	}
	ctrs := &sim.Counters{}
	b.Counters = ctrs
	sweep := runner.NewSweep(sess.Pool)
	sweep.AddTask(runner.Task{Key: b.Key(), Label: "cell", Run: b.Run, Counters: func() *sim.Counters { return ctrs }})
	start := time.Now()
	results, err := sweep.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Println(results[0].JCTs())
	sess.Summarize(1, "scenarios", time.Since(start), []*sim.Counters{ctrs})
	sess.Finish()
	return nil
}

// TestJournalDegradedWarnsOnce: a journal whose appends all fail — it
// writes into /dev/full, where every write fails with ENOSPC, even as
// root — degrades instead of failing the run. The process prints the
// same stdout as an unjournaled one, exits 0, and warns exactly once,
// at Close, with the first append failure.
func TestJournalDegradedWarnsOnce(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	child := func(journalPath string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), childEnv+"="+journalPath)
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				t.Fatalf("journal %q: exit %d: %s", journalPath, exit.ExitCode(), errOut.String())
			}
			t.Fatal(err)
		}
		return out.String(), errOut.String()
	}
	cleanOut, cleanErr := child("")
	degradedOut, degradedErr := child("/dev/full")
	if degradedOut != cleanOut || cleanOut == "" {
		t.Errorf("degraded journal changed stdout:\n%s\nwant:\n%s", degradedOut, cleanOut)
	}
	const warning = "palsim: WARNING: journal degraded: journal: append /dev/full: "
	if n := strings.Count(degradedErr, warning); n != 1 {
		t.Errorf("degraded journal warned %d times, want once:\n%s", n, degradedErr)
	}
	if !strings.Contains(degradedErr, "no space left on device") {
		t.Errorf("warning does not carry the append failure:\n%s", degradedErr)
	}
	if strings.Contains(cleanErr, "WARNING") {
		t.Errorf("unjournaled run warned:\n%s", cleanErr)
	}
}
