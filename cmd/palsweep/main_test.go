package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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
