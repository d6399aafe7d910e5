package experiments_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/runner"
	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite the quick-scale table goldens under testdata/")

// TestAllExperimentsQuickScale runs the full registry at QuickScale and
// holds every table to its golden CSV under testdata/ (header, rows,
// then one "# note" row per note, as palsweep -format csv writes it).
// fig18's timings are wall-clock, so its golden pins the epoch counts
// only. Both runs' caches sit on one fresh store. Each experiment runs
// cold first, filling the store, then again on a second cache holding
// no result the experiment's cold run computed, so every cell of that
// run is a result decoded from the store — it simulates nothing but
// fig18's three naive, uncached cells — and its table must equal the
// golden too. Rewrite the goldens with
//
//	go test ./internal/experiments -run TestAllExperimentsQuickScale -update
func TestAllExperimentsQuickScale(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, warm := runner.NewResultCache(0), runner.NewResultCache(0)
	cold.SetBackend(st)
	warm.SetBackend(st)
	coldPool, warmPool := runner.NewPool(0, cold), runner.NewPool(0, warm)
	executed := &executedProbe{}
	warmPool.SetProbe(executed)
	defer experiments.SetPool(experiments.SetPool(coldPool))
	scale := experiments.QuickScale()
	for _, name := range experiments.Names() {
		t.Run(name, func(t *testing.T) {
			experiments.SetPool(coldPool)
			table, err := experiments.RunByName(name, scale)
			if err != nil {
				t.Fatalf("%s failed: %v", name, err)
			}
			checkTable(t, table)
			checkGolden(t, table, *update)
			t.Run("store", func(t *testing.T) {
				experiments.SetPool(warmPool)
				table, err := experiments.RunByName(name, scale)
				if err != nil {
					t.Fatalf("%s from the store failed: %v", name, err)
				}
				checkGolden(t, table, false)
				ran := executed.take()
				want := 0
				if name == "fig18" {
					want = 3
				}
				if len(ran) != want {
					t.Errorf("%s from the store simulated %d tasks %q, want %d", name, len(ran), ran, want)
				}
			})
		})
	}
	if cs := cold.Stats(); cs.StoreErrors != 0 {
		t.Errorf("cold runs: %d store errors", cs.StoreErrors)
	}
	if ws := warm.Stats(); ws.StoreErrors != 0 || ws.Misses != 0 || ws.StoreHits == 0 {
		t.Errorf("store runs simulated %d cached cells, read %d from the store with %d errors; want 0, some and 0",
			ws.Misses, ws.StoreHits, ws.StoreErrors)
	}
}

// executedProbe records the labels of the tasks a pool simulates.
type executedProbe struct {
	mu     sync.Mutex
	labels []string
}

func (p *executedProbe) ObserveTask(sp runner.TaskSpan) {
	if sp.Outcome != runner.OutcomeExecuted && sp.Outcome != runner.OutcomeSnapshotFork {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.labels = append(p.labels, sp.Label)
}

// take returns the labels recorded since the last take.
func (p *executedProbe) take() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	labels := p.labels
	p.labels = nil
	return labels
}

// checkTable sanity-checks a table: rows, header-width consistency,
// renderable.
func checkTable(t *testing.T, table *experiments.Table) {
	t.Helper()
	if len(table.Rows) == 0 {
		t.Fatalf("%s produced no rows", table.Name)
	}
	for _, row := range table.Rows {
		if len(row) != len(table.Header) {
			t.Errorf("%s row width %d != header %d", table.Name, len(row), len(table.Header))
		}
	}
	if s := table.String(); !strings.Contains(s, table.Name) {
		t.Errorf("%s render missing name", table.Name)
	}
}

// checkGolden compares the table's pinned CSV with its golden file, or
// rewrites the file.
func checkGolden(t *testing.T, table *experiments.Table, rewrite bool) {
	t.Helper()
	var got bytes.Buffer
	if err := export.TableCSV(&got, pinned(table)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", table.Name+".csv")
	if rewrite {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run TestAllExperimentsQuickScale -update writes it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s differs from %s (-update rewrites it):\n%s", table.Name, path, got.Bytes())
	}
}

// pinned returns the part of a table a golden pins: all of it, except
// that fig18 keeps only its cluster sizes and epoch counts, and no note.
func pinned(table *experiments.Table) *experiments.Table {
	if table.Name != "fig18" {
		return table
	}
	cols := []int{slices.Index(table.Header, "cluster size"), slices.Index(table.Header, "epochs")}
	out := &experiments.Table{Name: table.Name, Title: table.Title}
	for _, c := range cols {
		out.Header = append(out.Header, table.Header[c])
	}
	for _, row := range table.Rows {
		out.Rows = append(out.Rows, []string{row[cols[0]], row[cols[1]]})
	}
	return out
}
