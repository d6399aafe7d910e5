package experiments

import (
	"testing"

	"repro/internal/sim"
)

// TestFig18TimesEveryEpoch: Fig. 18 reports PAL's placement time per
// epoch, so its runs must call the placer on every round that places a
// job. On the fast path PAL skips placement at fixpoints; the fig18
// specs step naively instead, and that choice stays out of the cache
// key.
func TestFig18TimesEveryEpoch(t *testing.T) {
	specs := fig18Specs(Scale{SynergyNumJobs: 400}, []int{64})
	spec := specs[0]
	if !spec.DisableFastForward {
		t.Fatal("fig18 spec steps on the fast path")
	}
	naiveCtr := &sim.Counters{}
	spec.Counters = naiveCtr
	naive, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if naiveCtr.PlacementsSkipped != 0 || naiveCtr.BulkRounds() != 0 {
		t.Errorf("fig18 run skipped rounds: %+v", *naiveCtr)
	}
	if int64(len(naive.PlaceTimes)) != naiveCtr.PlaceCalls {
		t.Errorf("PlaceTimes has %d samples for %d placement calls", len(naive.PlaceTimes), naiveCtr.PlaceCalls)
	}

	// The fast path on the same spec places less often — the reason the
	// switch exists — and shares the cache key.
	fastSpec := spec
	fastSpec.DisableFastForward = false
	fastSpec.Counters = &sim.Counters{}
	fast, err := Run(fastSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.PlaceTimes) >= len(naive.PlaceTimes) {
		t.Errorf("fast path placed %d times, naive %d; PAL fixpoint skipping did not engage",
			len(fast.PlaceTimes), len(naive.PlaceTimes))
	}
	if fastSpec.Key() != spec.Key() {
		t.Error("DisableFastForward changed the RunSpec key")
	}
}
