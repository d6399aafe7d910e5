package sim_test

// Equivalence guard for the fast-forward engine: for every workload ×
// scheduler × placer combination below, a run with fast-forwarding
// enabled must be *byte-identical* to the naive round-by-round loop —
// same per-job tables (JCT, waits, attained service, preemption and
// migration counts), same aggregate metrics, bit for bit (the metrics
// and decision suites extend this to every sink's output). The only
// field excluded is PlaceTimes' values, which are wall-clock
// measurements; their count must still match, except under a placer
// that declares stable fixpoints (sim.FixpointPlacer), whose fast run
// skips placement calls by design.

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// clusterTopology returns an n-node, 4-GPUs-per-node topology.
func clusterTopology(nodes int) cluster.Topology {
	return cluster.Topology{NumNodes: nodes, GPUsPerNode: 4}
}

// ffCase is one workload/policy combination of the equivalence matrix.
type ffCase struct {
	name   string
	trace  *trace.Trace
	nodes  int
	sched  sim.Scheduler
	placer func() sim.Placer // fresh placer per run (placers hold RNG state)
	// tweak, when set, adjusts the case's config after the defaults.
	tweak func(*sim.Config)
}

// fixpoint reports whether the case's placer takes the
// placement-fixpoint regime (and so calls PlaceRound less often on the
// fast path than the naive loop does).
func (c ffCase) fixpoint() bool {
	fp, ok := c.placer().(sim.FixpointPlacer)
	return ok && fp.FixpointStable()
}

// checkPlaceCalls compares the PlaceRound call counts (the length of
// PlaceTimes) of two runs of one case. They must match, unless the
// case's placer takes the fixpoint regime and only run b had it open:
// then b may place less often, never more.
func checkPlaceCalls(t *testing.T, c ffCase, nameA string, a *sim.Result, nameB string, b *sim.Result, bSkips bool) {
	t.Helper()
	na, nb := len(a.PlaceTimes), len(b.PlaceTimes)
	if bSkips && c.fixpoint() {
		if nb > na {
			t.Errorf("PlaceTimes count: %s %d, %s %d; the fixpoint regime placed more often",
				nameA, na, nameB, nb)
		}
		return
	}
	if na != nb {
		t.Errorf("PlaceTimes count: %s %d, %s %d", nameA, na, nameB, nb)
	}
}

func ffCases(t *testing.T) []ffCase {
	t.Helper()
	siaParams := trace.DefaultSiaPhillyParams()
	synParams := trace.DefaultSynergyParams(2) // sparse: ~2 jobs/hour
	synParams.NumJobs = 150
	profile64 := vprof.GenerateLonghorn(64, 0x9A1)
	binned64 := vprof.BinProfile(profile64)
	return []ffCase{
		{
			name:   "sia1/fifo/packed-sticky",
			trace:  trace.SiaPhilly(siaParams, 1),
			nodes:  16,
			sched:  sched.FIFO{},
			placer: func() sim.Placer { return place.NewPacked(true, 7) },
		},
		{
			name:   "sia5/las/packed-sticky",
			trace:  trace.SiaPhilly(siaParams, 5),
			nodes:  16,
			sched:  sched.LAS{},
			placer: func() sim.Placer { return place.NewPacked(true, 7) },
		},
		{
			name:   "sia3/fifo/random-sticky",
			trace:  trace.SiaPhilly(siaParams, 3),
			nodes:  16,
			sched:  sched.FIFO{},
			placer: func() sim.Placer { return place.NewRandom(true, 11) },
		},
		{
			// Sparse Philly-like arrivals: long jobs, long quiet stretches —
			// the fast-forward sweet spot.
			name:   "synergy-sparse/fifo/packed-sticky",
			trace:  trace.Synergy(synParams),
			nodes:  16,
			sched:  sched.FIFO{},
			placer: func() sim.Placer { return place.NewPacked(true, 7) },
		},
		{
			// PAL is non-sticky but declares stable fixpoints: after a round
			// in which every job kept its GPUs the fast run skips placement
			// and bulk advances until the prefix set changes. The test
			// pins that the regime engages and stays byte-identical.
			name:   "sia1/fifo/pal",
			trace:  trace.SiaPhilly(siaParams, 1),
			nodes:  16,
			sched:  sched.FIFO{},
			placer: func() sim.Placer { return core.NewPAL(binned64, 1.5, nil) },
		},
	}
}

func (c ffCase) config(t *testing.T, disableFF bool) sim.Config {
	t.Helper()
	topo := clusterTopology(c.nodes)
	profile := vprof.GenerateLonghorn(topo.Size(), 0x9A1)
	cfg := sim.Config{
		Topology:            topo,
		Trace:               c.trace,
		Sched:               c.sched,
		Placer:              c.placer(),
		TrueProfile:         profile,
		Lacross:             1.5,
		MigrationPenaltySec: 10,
		DisableFastForward:  disableFF,
	}
	if c.tweak != nil {
		c.tweak(&cfg)
	}
	return cfg
}

func TestFastForwardByteIdentical(t *testing.T) {
	for _, c := range ffCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			naive, err := sim.Run(c.config(t, true))
			if err != nil {
				t.Fatal(err)
			}
			fastCfg := c.config(t, false)
			ctr := &sim.Counters{}
			fastCfg.Counters = ctr
			fast, err := sim.Run(fastCfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.fixpoint() {
				// Positive pin: the fixpoint regime must engage — skip
				// placements and bulk advance — or the byte-identity
				// below is vacuous for this placer.
				if ctr.PlacementsSkipped == 0 || ctr.BulkRounds() == 0 ||
					len(fast.PlaceTimes) >= len(naive.PlaceTimes) {
					t.Errorf("fixpoint regime did not engage: skipped=%d bulk=%d place calls naive %d, fast %d",
						ctr.PlacementsSkipped, ctr.BulkRounds(), len(naive.PlaceTimes), len(fast.PlaceTimes))
				}
			} else {
				checkPlaceCalls(t, c, "naive", naive, "fast-forward", fast, false)
			}
			// Wall-clock values are the one legitimately nondeterministic
			// field; blank them before the exact comparison.
			naive.PlaceTimes, fast.PlaceTimes = nil, nil
			if !reflect.DeepEqual(naive, fast) {
				report := func(label string, r *sim.Result) {
					t.Logf("%s: rounds=%d makespan=%v util=%v",
						label, r.Rounds, r.Makespan, r.Utilization)
				}
				report("naive", naive)
				report("fast ", fast)
				for i := range naive.Jobs {
					if !reflect.DeepEqual(naive.Jobs[i], fast.Jobs[i]) {
						t.Errorf("job %d diverged:\n  naive %+v\n  fast  %+v",
							i, *naive.Jobs[i], *fast.Jobs[i])
						break
					}
				}
				t.Fatal("fast-forward result not byte-identical to naive loop")
			}
		})
	}
}

// TestFastForwardActuallyEngages guards the bench claim: on a sparse
// sticky-placement run the engine must reach the fast path (if the
// eligibility gate silently never opened, the equivalence test above
// would pass vacuously).
func TestFastForwardActuallyEngages(t *testing.T) {
	// One long single-GPU job and a far-future second job: almost every
	// round is a pure progress round.
	tr := &trace.Trace{Name: "sparse", Jobs: []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 1, Work: 3e5},
		{ID: 1, Arrival: 2.9e5, Demand: 1, Work: 600},
	}}
	cfg := sim.Config{
		Topology:    clusterTopology(2),
		Trace:       tr,
		Sched:       sched.FIFO{},
		Placer:      place.NewPacked(true, 1),
		TrueProfile: vprof.GenerateLonghorn(8, 1),
		Lacross:     1.5,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ~1000 rounds of progress; with fast-forward engaged the placer is
	// consulted only when jobs actually need GPUs (twice).
	if len(res.PlaceTimes) > 4 {
		t.Errorf("placement called %d times on a 2-placement sparse trace; fast-forward not engaging",
			len(res.PlaceTimes))
	}
	if res.Rounds < 1000 {
		t.Errorf("rounds = %d, want >= 1000 (progress rounds must still be counted)", res.Rounds)
	}
}
