package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestNothingCompletedPrintsDashes is the regression test for a run in
// which no job completes — in ../testdata/nothing-completes.json, shared
// with palsweep's test, job 0 demands 500 GPUs of 16 under admit-all and
// blocks job 1 behind it under FIFO until the round cap: the JCT, wait
// and makespan lines used to print means and percentiles over no job
// as 0.0.
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
}
