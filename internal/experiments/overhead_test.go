package experiments

import (
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
)

// spanProbe records the pool's task spans (one worker, so no locking).
type spanProbe []runner.TaskSpan

func (p *spanProbe) ObserveTask(sp runner.TaskSpan) { *p = append(*p, sp) }

// TestFig18TimesEveryEpoch: Fig. 18 reports PAL's placement time per
// epoch, so its runs must call the placer on every round that places a
// job. On the fast path PAL skips placement at fixpoints; the fig18
// cells step naively instead, and since only the wall-clock PlaceTimes
// tell the regimes apart, they run uncached.
func TestFig18TimesEveryEpoch(t *testing.T) {
	scale := Scale{SynergyNumJobs: 400}
	probe := &spanProbe{}
	var naive *sim.Result
	withPool(t, 1, func() {
		Pool().SetProbe(probe)
		results, err := runCells(scale.ctx(), "fig18", fig18Specs(scale, []int{64}), true)
		if err != nil {
			t.Fatal(err)
		}
		naive = results[0]
	})
	if len(*probe) != 1 {
		t.Fatalf("probe saw %d spans, want 1", len(*probe))
	}
	sp := (*probe)[0]
	if sp.Key != "" {
		t.Errorf("fig18 cell ran keyed (%s); wall-clock results must not be cached", sp.Key)
	}
	ctr := sp.Counters
	if ctr == nil {
		t.Fatal("fig18 cell carried no engine counters")
	}
	if ctr.PlacementsSkipped != 0 || ctr.BulkRounds() != 0 {
		t.Errorf("fig18 run skipped rounds: %+v", *ctr)
	}
	if int64(len(naive.PlaceTimes)) != ctr.PlaceCalls {
		t.Errorf("PlaceTimes has %d samples for %d placement calls", len(naive.PlaceTimes), ctr.PlaceCalls)
	}

	// The fast path on the same cell places less often — the reason
	// the naive mode exists.
	fast := runCell(t, fig18Specs(scale, []int{64})[0])
	if len(fast.PlaceTimes) >= len(naive.PlaceTimes) {
		t.Errorf("fast path placed %d times, naive %d; PAL fixpoint skipping did not engage",
			len(fast.PlaceTimes), len(naive.PlaceTimes))
	}
}
