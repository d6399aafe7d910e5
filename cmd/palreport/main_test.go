package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/store"
)

// reportGridSpec mirrors the palsweep shard-test grid: 2 policies x
// 2 seeds x 2 arrival rates = 8 cells over a tiny synthetic workload.
const reportGridSpec = `{
  "name": "report-test",
  "cluster": {"nodes": 2, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 16, "median_work_sec": 1800},
  "grid": {
    "policies": ["pal", "packed-sticky"],
    "seeds": [1, 2],
    "jobs_per_hour": [30, 60]
  }
}`

// TestGridCoveragePartialStore: a store populated by only shard 1/3 of
// the grid must render a coverage table with one row per expected cell
// — present cells marked, absent cells explicitly MISSING and counted
// in the notes, never silently dropped.
func TestGridCoveragePartialStore(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(specPath, []byte(reportGridSpec), 0o644); err != nil {
		t.Fatal(err)
	}

	spec, err := scenario.LoadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := spec.ExpandGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(expanded) != 8 {
		t.Fatalf("grid expanded to %d cells, want 8", len(expanded))
	}

	// Run only shard 1/3 into the store — a deliberately partial sweep.
	const shard, shards = 1, 3
	storeDir := filepath.Join(dir, "store")
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	cache := runner.NewResultCache(0)
	cache.SetBackend(st)
	pool := runner.NewPool(2, cache)
	sweep := runner.NewSweep(pool)
	ran := map[string]bool{}
	for _, c := range expanded {
		b, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		if runner.ShardOf(b.Key(), shards) != shard {
			continue
		}
		ran[b.Key()] = true
		run := b
		sweep.AddTask(runner.Task{Key: run.Key(), Label: run.Spec.Name, Run: run.Run})
	}
	if len(ran) == 0 || len(ran) == len(expanded) {
		t.Fatalf("shard %d/%d covers %d of %d cells; test needs a strict subset", shard, shards, len(ran), len(expanded))
	}
	if _, err := sweep.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	cells, err := expandGridCells(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(expanded) {
		t.Fatalf("expandGridCells returned %d cells, want %d", len(cells), len(expanded))
	}
	for i, c := range cells {
		if c.name != expanded[i].Name {
			t.Errorf("cell %d: expandGridCells name %q, want expansion-order name %q", i, c.name, expanded[i].Name)
		}
	}

	arch, err := cli.ReadArchives(storeDir, cli.Want{Payloads: true})
	if err != nil {
		t.Fatal(err)
	}
	have := arch.Keys
	if len(have) != len(ran) {
		t.Fatalf("archive reader found %d store keys, want the %d shard-%d cells", len(have), len(ran), shard)
	}

	table := gridCoverageTable(cells, have)
	if got, want := len(table.Rows), len(cells); got != want {
		t.Fatalf("coverage table has %d rows, want one per expected cell (%d)", got, want)
	}
	present, missing := 0, 0
	for i, row := range table.Rows {
		if row[0] != cells[i].name {
			t.Errorf("row %d names cell %q, want %q (expansion order)", i, row[0], cells[i].name)
		}
		wantStatus := "MISSING"
		if ran[cells[i].key] {
			wantStatus = "present"
		}
		if row[2] != wantStatus {
			t.Errorf("cell %s: status %q, want %q", cells[i].name, row[2], wantStatus)
		}
		switch row[2] {
		case "present":
			present++
		case "MISSING":
			missing++
		default:
			t.Errorf("cell %s: unknown status %q", cells[i].name, row[2])
		}
	}
	if present != len(ran) || missing != len(cells)-len(ran) {
		t.Errorf("table shows %d present / %d missing, want %d / %d", present, missing, len(ran), len(cells)-len(ran))
	}
	if len(table.Notes) == 0 {
		t.Fatal("coverage table has no notes; the missing count must be stated")
	}
	wantNote := []string{"grid cells present", "missing"}
	for _, w := range wantNote {
		if !strings.Contains(table.Notes[0], w) {
			t.Errorf("note %q does not state %q", table.Notes[0], w)
		}
	}
	hinted := false
	for _, n := range table.Notes {
		if strings.Contains(n, "-shard") {
			hinted = true
		}
	}
	if !hinted {
		t.Error("coverage table with missing cells should hint at running the remaining shards")
	}

	// A complete archive renders all-present with no remaining-shards hint.
	full := map[string]bool{}
	for _, c := range cells {
		full[c.key] = true
	}
	fullTable := gridCoverageTable(cells, full)
	for _, row := range fullTable.Rows {
		if row[2] != "present" {
			t.Errorf("complete archive: cell %s marked %q", row[0], row[2])
		}
	}
	if len(fullTable.Notes) != 1 {
		t.Errorf("complete archive should carry only the coverage count note, got %v", fullTable.Notes)
	}
}
