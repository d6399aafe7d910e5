package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

func TestExpandScenarioArgs(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b.json", "a.json", "pal-1.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sub := filepath.Join(dir, "empty")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}

	// Directory: every *.json, sorted; non-JSON files excluded.
	got, err := expandScenarioArgs(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, "a.json"),
		filepath.Join(dir, "b.json"),
		filepath.Join(dir, "pal-1.json"),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("directory expansion: got %v, want %v", got, want)
	}

	// Glob plus literal file, comma-separated, order preserved.
	got, err = expandScenarioArgs(filepath.Join(dir, "pal-*.json") + ", " + filepath.Join(dir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	want = []string{filepath.Join(dir, "pal-1.json"), filepath.Join(dir, "a.json")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("glob+file expansion: got %v, want %v", got, want)
	}

	// Every miss is named in the error: a typo'd file, a matchless glob
	// and a JSON-less directory all show up.
	_, err = expandScenarioArgs(strings.Join([]string{
		filepath.Join(dir, "missing.json"),
		filepath.Join(dir, "zzz-*.json"),
		sub,
	}, ","))
	if err == nil {
		t.Fatal("expected an error for unmatched arguments")
	}
	for _, frag := range []string{"missing.json", "zzz-*.json", "empty"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name the unmatched argument %q", err, frag)
		}
	}
}

// TestSweepSummaryMilliseconds pins the closing line's resolution: a
// 42 ms warm sweep reads "0.042s total", not "0.0s total", and the line
// keeps the ", N simulated," field that scripts grep for.
func TestSweepSummaryMilliseconds(t *testing.T) {
	pool := runner.NewPool(2, runner.NewResultCache(0))
	got := sweepSummary(3, "scenarios", pool, 42*time.Millisecond)
	want := "palsweep: 3 scenarios, 0 simulated, 0 cache hits (0 memory, 0 store), 2 workers, 0.042s total"
	if got != want {
		t.Errorf("sweepSummary = %q, want %q", got, want)
	}
	if !strings.Contains(got, ", 0 simulated,") {
		t.Errorf("summary %q lost the \", 0 simulated,\" field", got)
	}
}
