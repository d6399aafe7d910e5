package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/export"
	"repro/internal/store"
)

// childEnv marks a re-executed test binary that should run palsweep's
// main instead of the tests.
const childEnv = "PALSWEEP_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// palsweep runs the CLI in a child process — this test binary
// re-executed into main — and returns its stdout, stderr and exit
// status.
func palsweep(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// TestStoreShardFaultDegradesAndHeals: one shard directory of a fresh
// store replaced by a regular file makes every cell keyed into it fail
// twice against the store — its read and its write — and nothing else.
// The sweep degrades instead of failing: exit status 0, tables
// byte-identical to a run without a store, and a closing warning that
// counts exactly those failures. Removing the file heals the store: the
// next sweep simulates only the cells it lost, warns about nothing, and
// leaves a store that verifies clean and serves a warm sweep in full.
func TestStoreShardFaultDegradesAndHeals(t *testing.T) {
	dir := t.TempDir()
	spec := writeShardGrid(t, dir)
	clean, stderr, code := palsweep(t, "-scenario", spec, "-quiet")
	if code != 0 {
		t.Fatalf("clean sweep exited %d: %s", code, stderr)
	}

	storeDir := filepath.Join(dir, "store")
	if _, err := store.Open(storeDir); err != nil {
		t.Fatal(err)
	}
	cells, err := loadScenarioCells([]string{spec}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	shard := cells[0].built.Key()[:2]
	lost := 0
	for _, c := range cells {
		if strings.HasPrefix(c.built.Key(), shard) {
			lost++
		}
	}
	blocker := filepath.Join(storeDir, export.ResultFormatVersion, "objects", shard)
	if err := os.WriteFile(blocker, []byte("not a directory\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	sweep := func(what string) string {
		t.Helper()
		out, stderr, code := palsweep(t, "-scenario", spec, "-store", storeDir)
		if code != 0 {
			t.Fatalf("%s sweep exited %d: %s", what, code, stderr)
		}
		if out != clean {
			t.Errorf("%s sweep's table differs from the clean run's:\n--- clean\n%s--- %s\n%s", what, clean, what, out)
		}
		return stderr
	}
	want := fmt.Sprintf("palsweep: WARNING: persistent store degraded: %d backend errors\n", 2*lost)
	if stderr := sweep("degraded"); !strings.Contains(stderr, want) {
		t.Errorf("degraded sweep's stderr lacks %q:\n%s", want, stderr)
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	stderr = sweep("healing")
	if strings.Contains(stderr, "WARNING") {
		t.Errorf("healing sweep warned:\n%s", stderr)
	}
	if want := fmt.Sprintf(", %d simulated,", lost); !strings.Contains(stderr, want) {
		t.Errorf("healing sweep's stderr lacks %q:\n%s", want, stderr)
	}
	if problems := storeVerify(t, storeDir); len(problems) > 0 {
		t.Errorf("healed store failed verification: %v", problems)
	}
	if stderr := sweep("warm"); !strings.Contains(stderr, ", 0 simulated,") {
		t.Errorf("warm sweep over the healed store simulated:\n%s", stderr)
	}
}
