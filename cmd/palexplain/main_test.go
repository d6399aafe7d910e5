package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/decision"
)

// TestWriteTablesRepeatedNames: two archives of one spec (-in d1,d2)
// carry the same trace name; under -out the second table gets a key
// suffix instead of silently overwriting the first file, for the
// timeline and the -job view alike.
func TestWriteTablesRepeatedNames(t *testing.T) {
	trace := func() *decision.Trace {
		return &decision.Trace{
			Name: "diurnal-pal-demo", Key: "32296f0334e1442f", Policy: "pal", Sched: "fifo",
			Records: []decision.Record{{Round: 0, Order: []decision.OrderEntry{{Job: 0, Running: true}}}},
		}
	}
	traces := []*decision.Trace{trace(), trace()}
	for _, c := range []struct {
		job  int
		want []string
	}{
		{-1, []string{"decisions_diurnal-pal-demo-32296f03.csv", "decisions_diurnal-pal-demo.csv"}},
		{0, []string{"decisions_diurnal-pal-demo_job0-32296f03.csv", "decisions_diurnal-pal-demo_job0.csv"}},
	} {
		dir := t.TempDir()
		if err := writeTables(traces, c.job, "csv", dir); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("job %d: wrote %v, want %v", c.job, got, c.want)
		}
	}
	for _, tr := range traces {
		if tr.Name != "diurnal-pal-demo" {
			t.Errorf("writeTables renamed the trace itself to %q", tr.Name)
		}
	}
}

// TestWriteTablesRefusesEscapingName: a trace named after a spec like
// "../escaped" must not place its table file outside -out.
func TestWriteTablesRefusesEscapingName(t *testing.T) {
	root := t.TempDir()
	out := filepath.Join(root, "out")
	tr := &decision.Trace{Name: "../escaped"}
	if err := writeTables([]*decision.Trace{tr}, -1, "csv", out); err == nil {
		t.Fatal("a table named outside -out was written without error")
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("refused write left %d entries next to -out", len(entries))
	}
}
