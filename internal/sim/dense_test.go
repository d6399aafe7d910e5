package sim_test

// Equivalence guard for the incremental engine core on *dense* traces —
// the regime PR 2's sparse fast-forward never touched. For every case
// below the incremental engine (dirty-set ordering, skipped no-op
// placement, event-horizon bulk advance through busy rounds with a
// standing queue) must produce a Result byte-identical to the retained
// naive reference loop, with and without a metrics sink attached. The
// cases are chosen to exercise the dense machinery hard: saturated Sia
// and Synergy queues under FIFO and LAS, and a preemption-heavy
// synthetic workload whose LAS priorities churn the partition
// constantly (the regression regime for the demotion-during-advance
// ceiling bug). The paper's own placers, PAL and PM-First, run the same
// saturated queues under all three schedulers: they are non-sticky, and
// their fast runs take the placement-fixpoint regime (sim.FixpointPlacer)
// — skipping placement and bulk advancing after rounds in which every
// job kept its GPUs — including under the PM-First class-priority
// ablation and PAL's rack-level, per-model-penalty extension.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

func denseCases(t *testing.T) []ffCase {
	t.Helper()
	burstyPreempt, err := trace.Synth(trace.SynthParams{
		Name:        "dense-preempt",
		NumJobs:     250,
		Seed:        0xBEEF,
		Arrivals:    trace.ArrivalBursty,
		JobsPerHour: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	synParams := trace.DefaultSynergyParams(12) // saturating on 32 GPUs
	synParams.NumJobs = 250
	// The paper placers consult the binned view of the cases' true
	// profile (8 nodes x 4 GPUs, the seed every ffCase config uses).
	binned32 := vprof.BinProfile(vprof.GenerateLonghorn(32, 0x9A1))
	pal := func() sim.Placer { return core.NewPAL(binned32, 1.5, nil) }
	pmFirst := func() sim.Placer { return core.NewPMFirst(binned32) }
	const lrack = 1.2
	return []ffCase{
		{
			name:   "dense-sia5/las/packed-sticky",
			trace:  trace.SiaPhilly(trace.DefaultSiaPhillyParams(), 5),
			nodes:  8,
			sched:  sched.LAS{},
			placer: func() sim.Placer { return place.NewPacked(true, 7) },
		},
		{
			name:   "dense-sia5/fifo/packed-sticky",
			trace:  trace.SiaPhilly(trace.DefaultSiaPhillyParams(), 5),
			nodes:  8,
			sched:  sched.FIFO{},
			placer: func() sim.Placer { return place.NewPacked(true, 7) },
		},
		{
			name:   "dense-sia3/srtf/random-sticky",
			trace:  trace.SiaPhilly(trace.DefaultSiaPhillyParams(), 3),
			nodes:  8,
			sched:  sched.SRTF{},
			placer: func() sim.Placer { return place.NewRandom(true, 13) },
		},
		{
			name:   "dense-synergy/las/packed-sticky",
			trace:  trace.Synergy(synParams),
			nodes:  8,
			sched:  sched.LAS{},
			placer: func() sim.Placer { return place.NewPacked(true, 9) },
		},
		{
			// Preemption-heavy: a tiny LAS threshold demotes every job
			// after a few rounds of service, so fresh arrivals preempt
			// runners all run long, and the order horizon terminates spans
			// constantly. This is the stress case for the attained
			// ceilings.
			name:   "preempt-heavy/las-lowthresh/packed-sticky",
			trace:  burstyPreempt,
			nodes:  8,
			sched:  sched.LAS{Threshold: 1800},
			placer: func() sim.Placer { return place.NewPacked(true, 21) },
		},
		{name: "dense-sia5/fifo/pal", trace: trace.SiaPhilly(trace.DefaultSiaPhillyParams(), 5),
			nodes: 8, sched: sched.FIFO{}, placer: pal},
		{name: "dense-synergy/las/pal", trace: trace.Synergy(synParams),
			nodes: 8, sched: sched.LAS{}, placer: pal},
		{name: "dense-sia3/srtf/pal", trace: trace.SiaPhilly(trace.DefaultSiaPhillyParams(), 3),
			nodes: 8, sched: sched.SRTF{}, placer: pal},
		{name: "dense-synergy/fifo/pm-first", trace: trace.Synergy(synParams),
			nodes: 8, sched: sched.FIFO{}, placer: pmFirst},
		{name: "dense-sia5/las/pm-first", trace: trace.SiaPhilly(trace.DefaultSiaPhillyParams(), 5),
			nodes: 8, sched: sched.LAS{}, placer: pmFirst},
		{name: "dense-synergy/srtf/pm-first", trace: trace.Synergy(synParams),
			nodes: 8, sched: sched.SRTF{}, placer: pmFirst},
		{
			// Placement-priority ablation: the prefix is walked in
			// scheduling order, which LAS reshuffles as service accrues —
			// the fixpoint must not depend on that order.
			name:  "dense-sia5/las/pm-first-no-class-priority",
			trace: trace.SiaPhilly(trace.DefaultSiaPhillyParams(), 5),
			nodes: 8,
			sched: sched.LAS{},
			placer: func() sim.Placer {
				p := core.NewPMFirst(binned32)
				p.NoClassPriority = true
				return p
			},
		},
		{
			// Three-level locality with per-model penalties: the engine
			// and PAL both charge Lrack inside a rack of two nodes.
			name:  "dense-synergy/las/pal-rack-model",
			trace: trace.Synergy(synParams),
			nodes: 8,
			sched: sched.LAS{},
			placer: func() sim.Placer {
				p := core.NewPAL(binned32, 1.5, trace.LacrossByModel())
				p.EnableRackLevel(lrack)
				return p
			},
			tweak: func(cfg *sim.Config) {
				cfg.Topology.NodesPerRack = 2
				cfg.Lrack = lrack
				cfg.ModelLacross = trace.LacrossByModel()
			},
		},
	}
}

func TestDenseIncrementalByteIdentical(t *testing.T) {
	suiteCtr := &sim.Counters{}
	fixpointCtr := &sim.Counters{}
	for _, c := range denseCases(t) {
		c := c
		for _, withMetrics := range []bool{false, true} {
			withMetrics := withMetrics
			t.Run(fmt.Sprintf("%s/metrics=%v", c.name, withMetrics), func(t *testing.T) {
				naiveCfg := c.config(t, true)
				fastCfg := c.config(t, false)
				fastCfg.Counters = &sim.Counters{}
				if withMetrics {
					naiveCfg.Metrics = collectorFor(t, c, 1)
					fastCfg.Metrics = collectorFor(t, c, 1)
				}
				naive, err := sim.Run(naiveCfg)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := sim.Run(fastCfg)
				if err != nil {
					t.Fatal(err)
				}
				suiteCtr.Add(fastCfg.Counters)
				if c.fixpoint() {
					fixpointCtr.Add(fastCfg.Counters)
				}
				checkPlaceCalls(t, c, "naive", naive, "incremental", fast, true)
				if withMetrics {
					np, fp := metrics.FromResult(naive), metrics.FromResult(fast)
					if np == nil || fp == nil {
						t.Fatal("payload missing from an instrumented run")
					}
					if !reflect.DeepEqual(np, fp) {
						t.Error("metrics payload not byte-identical across the incremental engine")
					}
				}
				// Wall-clock values and the sink pointers are the only
				// legitimately differing fields; blank them before the
				// exact comparison.
				naive.PlaceTimes, fast.PlaceTimes = nil, nil
				naive.Metrics, fast.Metrics = nil, nil
				if !reflect.DeepEqual(naive, fast) {
					for i := range naive.Jobs {
						if !reflect.DeepEqual(naive.Jobs[i], fast.Jobs[i]) {
							t.Errorf("job %d diverged:\n  naive       %+v\n  incremental %+v",
								i, *naive.Jobs[i], *fast.Jobs[i])
							break
						}
					}
					t.Fatal("incremental result not byte-identical to naive reference loop")
				}
			})
		}
	}
	// Engagement guard: the suite must actually have exercised the dense
	// bulk path (spans entered with a non-empty waiting set) — otherwise
	// the byte-identity above is vacuous.
	if suiteCtr.DenseSpans == 0 {
		t.Error("dense bulk-advance path never engaged across the dense suite")
	}
	if fixpointCtr.PlacementsSkipped == 0 || fixpointCtr.DenseSpans == 0 {
		t.Errorf("fixpoint regime never engaged across the paper-placer cases: %+v", *fixpointCtr)
	}
}

// TestDenseIncrementalActuallyEngages pins the dense path's engagement
// on a minimal saturated workload, independent of the suite above: four
// long FIFO jobs on a cluster that fits only two must bulk-advance the
// stretches between completions even though jobs are waiting.
func TestDenseIncrementalActuallyEngages(t *testing.T) {
	tr := &trace.Trace{Name: "dense-mini", Jobs: []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 4, Work: 3e5},
		{ID: 1, Arrival: 0, Demand: 4, Work: 3e5},
		{ID: 2, Arrival: 0, Demand: 4, Work: 3e5},
		{ID: 3, Arrival: 0, Demand: 4, Work: 3e5},
	}}
	ctr := &sim.Counters{}
	cfg := sim.Config{
		Topology:    clusterTopology(2), // 8 GPUs: two jobs run, two wait
		Trace:       tr,
		Sched:       sched.FIFO{},
		Placer:      place.NewPacked(true, 1),
		TrueProfile: vprof.GenerateLonghorn(8, 1),
		Lacross:     1.5,
		Counters:    ctr,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.DenseSpans == 0 {
		t.Error("no dense spans on a saturated FIFO trace")
	}
	// ~1000+ progress rounds per phase; virtually all must be skipped.
	if res.Rounds < 1000 || ctr.BulkRounds() < int64(res.Rounds)*9/10 {
		t.Errorf("rounds=%d bulk=%d; dense bulk advance not skipping the busy stretches",
			res.Rounds, ctr.BulkRounds())
	}
	if got := ctr.TotalRounds(); got != int64(res.Rounds) {
		t.Errorf("counter TotalRounds=%d, Result.Rounds=%d; regime counts must partition the rounds",
			got, res.Rounds)
	}
	// Placement must have been consulted only when occupancy changed
	// (two initial placements + two promotions after completions).
	if len(res.PlaceTimes) > 6 {
		t.Errorf("placement called %d times, want <= 6", len(res.PlaceTimes))
	}
}
