package main

import (
	"slices"
	"testing"
)

// TestNothingCompletedTableDashes is the regression test for a scenario
// in which no job completes (../testdata/nothing-completes.json, shared
// with palsim's test): the table's JCT, wait and makespan columns used
// to read 0.
func TestNothingCompletedTableDashes(t *testing.T) {
	cells, err := loadScenarioCells([]string{"../testdata/nothing-completes.json"}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	results, _ := runCells(t, cells, nil)
	table, _, err := scenarioTable(cells, results, "")
	if err != nil {
		t.Fatal(err)
	}
	row := table.Rows[0]
	for _, col := range []string{"avg_jct_s", "p50_jct_s", "p99_jct_s", "mean_wait_s", "makespan_h"} {
		if got := row[slices.Index(table.Header, col)]; got != "-" {
			t.Errorf("%s = %q, want -", col, got)
		}
	}
	if got := row[slices.Index(table.Header, "truncated")]; got != "yes (2 unfinished)" {
		t.Errorf("truncated = %q", got)
	}
}
