package cli

import (
	"strings"
	"testing"
	"time"
)

// TestSweepSummaryMilliseconds pins the closing line's resolution: a
// 42 ms warm sweep reads "0.042s total", not "0.0s total", and the line
// keeps the ", N simulated," field that scripts grep for.
func TestSweepSummaryMilliseconds(t *testing.T) {
	sess, err := Open(Options{Prog: "palsweep", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := sess.sweepSummary(3, "scenarios", 42*time.Millisecond)
	want := "palsweep: 3 scenarios, 0 simulated, 0 cache hits (0 memory, 0 store), 2 workers, 0.042s total"
	if got != want {
		t.Errorf("sweepSummary = %q, want %q", got, want)
	}
	if !strings.Contains(got, ", 0 simulated,") {
		t.Errorf("summary %q lost the \", 0 simulated,\" field", got)
	}
}
