package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/export"
	"repro/internal/scenario"
)

// TestNothingCompletedPrintsDashes is the regression test for a run in
// which no job completes — in ../testdata/nothing-completes.json, shared
// with palsweep's test, job 0 demands 500 GPUs of 16 under admit-all and
// blocks job 1 behind it under FIFO until the round cap: the JCT, wait
// and makespan lines used to print means and percentiles over no job
// as 0.0, and -json reported them as 0 beside "measured": 0. The text
// prints "-" and the JSON null.
func TestNothingCompletedPrintsDashes(t *testing.T) {
	spec, err := scenario.LoadFile("../testdata/nothing-completes.json")
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := built.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Unfinished != 2 {
		t.Fatalf("truncated %v with %d unfinished, want both jobs unfinished", res.Truncated, res.Unfinished)
	}
	var out bytes.Buffer
	printMetrics(&out, "header", res)
	for _, label := range []string{"avg JCT", "p50 JCT", "p99 JCT", "mean wait", "makespan"} {
		i := strings.Index(out.String(), "  "+label+" ")
		if i < 0 {
			t.Fatalf("no %s line in\n%s", label, out.String())
		}
		line, _, _ := strings.Cut(out.String()[i:], "\n")
		if fields := strings.Fields(strings.TrimPrefix(line, "  "+label)); len(fields) != 1 || fields[0] != "-" {
			t.Errorf("%q, want %s printed as -", line, label)
		}
	}
	out.Reset()
	if err := export.ResultJSON(&out, res); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["measured"] != 0.0 {
		t.Fatalf("measured = %v, want 0", got["measured"])
	}
	for _, field := range []string{"avg_jct_sec", "p50_jct_sec", "p99_jct_sec", "mean_wait_sec", "makespan_sec"} {
		if v, ok := got[field]; !ok || v != nil {
			t.Errorf("%s = %v (present %v), want null", field, v, ok)
		}
	}
}
