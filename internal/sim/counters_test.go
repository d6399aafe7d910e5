package sim_test

// Non-perturbation + engagement guard for the engine introspection
// counters (Config.Counters). Attaching a Counters — alongside metrics
// and decision sinks — must leave Result byte-identical to an
// uninstrumented run, across all four stepping regimes; and the
// counters themselves must prove the regimes actually engaged, so the
// byte-identity cannot pass vacuously against fast paths that never
// fire. This supersedes the old process-global bulk-stats engagement
// checks.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestCountersDoNotPerturbSimulation(t *testing.T) {
	fastSuite := &sim.Counters{}
	naiveSuite := &sim.Counters{}
	cases := append(ffCases(t), denseCases(t)...)
	for _, c := range cases {
		c := c
		for _, disableFF := range []bool{false, true} {
			disableFF := disableFF
			suite := fastSuite
			if disableFF {
				suite = naiveSuite
			}
			t.Run(fmt.Sprintf("%s/naive=%v", c.name, disableFF), func(t *testing.T) {
				// Uninstrumented reference: no counters, no sinks.
				bare, err := sim.Run(c.config(t, disableFF))
				if err != nil {
					t.Fatal(err)
				}

				ctr := &sim.Counters{}
				cfg := c.config(t, disableFF)
				cfg.Counters = ctr
				cfg.Metrics = collectorFor(t, c, 1)
				cfg.Decisions = recorderFor(t, c.name)
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				suite.Add(ctr)

				// The regime counts partition the simulated rounds exactly.
				if got := ctr.TotalRounds(); got != int64(res.Rounds) {
					t.Errorf("counter TotalRounds=%d, Result.Rounds=%d", got, res.Rounds)
				}
				if disableFF {
					// The naive reference loop never bulk-advances, never
					// maintains an incremental order, never skips placement.
					if ctr.BulkRounds() != 0 || ctr.OrderMerges != 0 ||
						ctr.OrderRevalidated != 0 || ctr.PlacementsSkipped != 0 {
						t.Errorf("naive run engaged fast paths: %+v", *ctr)
					}
					if ctr.OrderFullCalls == 0 {
						t.Error("naive run recorded no full Order calls")
					}
				}

				// Byte-identity: wall-clock PlaceTimes and the sink pointers
				// are the only legitimately differing fields. The decision
				// sink keeps a fixpoint placer on every round, so the bare
				// fast run may place less often than the instrumented one.
				checkPlaceCalls(t, c, "instrumented", res, "bare", bare, !disableFF)
				bare.PlaceTimes, res.PlaceTimes = nil, nil
				res.Metrics, res.Decisions = nil, nil
				if !reflect.DeepEqual(bare, res) {
					for i := range bare.Jobs {
						if !reflect.DeepEqual(bare.Jobs[i], res.Jobs[i]) {
							t.Errorf("job %d diverged:\n  bare         %+v\n  instrumented %+v",
								i, *bare.Jobs[i], *res.Jobs[i])
							break
						}
					}
					t.Fatal("counters (with metrics + decision sinks) perturbed the simulation result")
				}
			})
		}
	}
	// The suite's traces keep the cluster busy end to end, so the
	// idle-gap regime needs its own case: one early job, one far-future
	// arrival, a long empty stretch between them.
	gapCtr := &sim.Counters{}
	gapCfg := sparseConfig(false)
	gapCfg.Trace = &trace.Trace{Name: "gap", Jobs: []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 1, Work: 600},
		{ID: 1, Arrival: 3e5, Demand: 1, Work: 600},
	}}
	gapCfg.Counters = gapCtr
	if _, err := sim.Run(gapCfg); err != nil {
		t.Fatal(err)
	}
	fastSuite.Add(gapCtr)

	// Engagement guard across the fast-path suite: every regime and every
	// counted fast path must actually have fired somewhere.
	for _, g := range []struct {
		name string
		n    int64
	}{
		{"materialized rounds", fastSuite.MaterializedRounds},
		{"idle-gap rounds", fastSuite.IdleGapRounds},
		{"sparse fast-forward rounds", fastSuite.SparseRounds},
		{"dense bulk-advance rounds", fastSuite.DenseRounds},
		{"order merges", fastSuite.OrderMerges},
		{"order revalidations", fastSuite.OrderRevalidated},
		{"placement skips", fastSuite.PlacementsSkipped},
		{"placement runs", fastSuite.PlacementsRun},
		{"preemptions", fastSuite.Preemptions},
		{"allocator calls", fastSuite.AllocCalls},
	} {
		if g.n == 0 {
			t.Errorf("%s never engaged across the fast-path suite", g.name)
		}
	}
	if naiveSuite.MaterializedRounds == 0 {
		t.Error("naive suite recorded no materialized rounds")
	}
}

// TestCountersAcrossSnapshotResume pins the capture/resume counters and
// the resumed-run round accounting: a resumed engine's TotalRounds is
// Result.Rounds minus the snapshot prefix it skipped.
func TestCountersAcrossSnapshotResume(t *testing.T) {
	const horizon = 40

	capCtr := &sim.Counters{}
	capCfg := sparseConfig(false)
	capCfg.Counters = capCtr
	snap, early, err := sim.Capture(capCfg, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if early != nil {
		t.Fatalf("run finished before the %d-round horizon", horizon)
	}
	if capCtr.SnapshotsCaptured != 1 {
		t.Errorf("SnapshotsCaptured=%d, want 1", capCtr.SnapshotsCaptured)
	}
	if got := capCtr.TotalRounds(); got != int64(snap.Rounds) {
		t.Errorf("capture counters cover %d rounds, snapshot froze at %d", got, snap.Rounds)
	}

	resCtr := &sim.Counters{}
	resCfg := sparseConfig(false)
	resCfg.Counters = resCtr
	res, err := sim.Resume(resCfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if resCtr.SnapshotsResumed != 1 || resCtr.ResumedRounds != int64(snap.Rounds) {
		t.Errorf("resume counters: SnapshotsResumed=%d ResumedRounds=%d, want 1/%d",
			resCtr.SnapshotsResumed, resCtr.ResumedRounds, snap.Rounds)
	}
	if got := resCtr.TotalRounds(); got != int64(res.Rounds)-resCtr.ResumedRounds {
		t.Errorf("resumed TotalRounds=%d, want Result.Rounds-ResumedRounds = %d-%d",
			got, res.Rounds, resCtr.ResumedRounds)
	}

	// Whole-run reference: the resumed result must match it, counters or
	// not (the snapshot suite pins this broadly; here it guards that the
	// counter increments sit outside the restored state).
	whole, err := sim.Run(sparseConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	whole.PlaceTimes, res.PlaceTimes = nil, nil
	if !reflect.DeepEqual(whole, res) {
		t.Fatal("resumed result with counters attached diverged from the whole run")
	}
}

// TestCountersSummaryResumeWording: a resume starts past a prefix the
// capture simulated, which is shared only when several cells resume one
// snapshot — the engine cannot tell, so its summary states rounds
// resumed past and claims no savings.
func TestCountersSummaryResumeWording(t *testing.T) {
	c := &sim.Counters{MaterializedRounds: 10, SnapshotsResumed: 4, ResumedRounds: 48}
	got := c.Summary()
	if want := "; 4 snapshot resumes started past 48 prefix rounds"; !strings.HasSuffix(got, want) {
		t.Errorf("summary %q, want suffix %q", got, want)
	}
	if strings.Contains(got, "saved") {
		t.Errorf("summary %q claims savings", got)
	}
}
