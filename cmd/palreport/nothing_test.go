package main

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// payloadOf runs the spec at path with metrics on and returns its
// payload.
func payloadOf(t *testing.T, path string) *metrics.Payload {
	t.Helper()
	spec, err := scenario.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec.Metrics.Enabled = true
	b, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := metrics.FromResult(res)
	if p == nil {
		t.Fatalf("%s: no metrics payload", path)
	}
	return p
}

// TestNothingMeasuredPrintsDashes is the regression test for a payload
// with "measured": 0 (../testdata/nothing-completes.json, shared with
// palsim's and palsweep's tests): metrics_summary printed its JCT and
// wait statistics as 0, metrics_vs_baseline reported it as a 100%
// improvement on every JCT column, and as the baseline its note read
// "avg JCT 0.0 s". Each prints "-".
func TestNothingMeasuredPrintsDashes(t *testing.T) {
	done := payloadOf(t, "../../examples/scenario/spec.json")
	nothing := payloadOf(t, "../testdata/nothing-completes.json")
	if done.Aggregates.Measured == 0 || nothing.Aggregates.Measured != 0 {
		t.Fatalf("measured %d and %d, want some and none", done.Aggregates.Measured, nothing.Aggregates.Measured)
	}
	payloads := []*metrics.Payload{done, nothing}

	dashes := func(table string, header, row []string, cols ...string) {
		t.Helper()
		for _, col := range cols {
			if got := row[slices.Index(header, col)]; got != "-" {
				t.Errorf("%s %s %s = %q, want -", table, row[0], col, got)
			}
		}
	}
	summary := summaryTable(payloads)
	dashes("metrics_summary", summary.Header, summary.Rows[1],
		"avg_jct_s", "p50_jct_s", "p90_jct_s", "p99_jct_s", "mean_wait_s")
	if got := summary.Rows[0][slices.Index(summary.Header, "avg_jct_s")]; got == "-" {
		t.Error("metrics_summary prints - for a run that measured jobs")
	}

	improvements := []string{"avg_jct_impr_pct", "p50_jct_impr_pct", "p99_jct_impr_pct", "mean_wait_impr_pct"}
	for _, base := range payloads {
		other := done
		if base == done {
			other = nothing
		}
		cmp := comparisonTable(payloads, base)
		if len(cmp.Rows) != 1 || cmp.Rows[0][0] != other.Name {
			t.Fatalf("baseline %s: rows %v", base.Name, cmp.Rows)
		}
		dashes("metrics_vs_baseline", cmp.Header, cmp.Rows[0], improvements...)
		note := strings.Join(cmp.Notes, "\n")
		if wantDash := base == nothing; strings.Contains(note, "avg JCT -, p99 -") != wantDash {
			t.Errorf("baseline %s: note %q", base.Name, note)
		}
	}
}
