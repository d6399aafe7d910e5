package experiments

import (
	"bytes"
	"testing"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// withPool runs fn with a freshly-configured shared pool and restores
// the previous one afterwards.
func withPool(t *testing.T, workers int, fn func()) {
	t.Helper()
	prev := SetPool(runner.NewPool(workers, runner.NewResultCache(256)))
	defer SetPool(prev)
	fn()
}

// TestRunnerDeterminismSerialVsParallel is the acceptance check for the
// orchestration layer: for a fixed spec list, a 1-worker pool and an
// 8-worker pool must yield byte-identical exported tables. Each pool
// gets a fresh cache so the parallel pass cannot trivially replay the
// serial pass's results. Run under -race in CI, this also doubles as the
// shared-state safety check for concurrent simulations.
func TestRunnerDeterminismSerialVsParallel(t *testing.T) {
	// A trimmed scale keeps the doubled workload (every table runs twice)
	// inside unit-test budget while still covering both cluster setups,
	// all six policies, a penalty sweep and a load sweep.
	scale := QuickScale()
	scale.SiaTraces = []int{1, 3}
	scale.SiaPenalties = []float64{1.0, 2.0}
	scale.SynergyLoads = []float64{8}

	render := func(workers int) []byte {
		var buf bytes.Buffer
		withPool(t, workers, func() {
			for _, name := range []string{"fig11", "fig13", "fig14"} {
				table, err := RunByName(name, scale)
				if err != nil {
					t.Fatalf("workers=%d %s: %v", workers, name, err)
				}
				buf.WriteString(table.String())
			}
		})
		return buf.Bytes()
	}

	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("1-worker and 8-worker exports differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestFigureCellKeys: a figure cell's key is its configuration's — the
// same cell built twice (traces regenerated) keys the same whichever
// figure asks for it, so cross-figure dedup holds — and everything a
// figure varies moves it.
func TestFigureCellKeys(t *testing.T) {
	key := func(spec *scenario.Spec) string {
		t.Helper()
		b, err := buildCell(spec)
		if err != nil {
			t.Fatal(err)
		}
		return b.Key()
	}
	scale := QuickScale()
	// Fig. 14 and Fig. 19 both ask for the 8 j/h FIFO cells.
	if key(synergySpec(scale, 8, PALPolicy, "fifo", SynergyLacross, false)) !=
		key(synergySpec(scale, 8, PALPolicy, "fifo", SynergyLacross, false)) {
		t.Fatal("equal cells have different keys")
	}
	ref := key(SiaBaselineSpecs(Scale{SiaTraces: []int{1}})[int(PALPolicy)])
	mutations := map[string]*scenario.Spec{
		"penalty":  cellSpec(SiaClusterNodes, siaWorkload(1), PALPolicy, "fifo", 2.0, ExperimentSeed^1),
		"seed":     cellSpec(SiaClusterNodes, siaWorkload(1), PALPolicy, "fifo", 1.5, ExperimentSeed^2),
		"policy":   cellSpec(SiaClusterNodes, siaWorkload(1), Tiresias, "fifo", 1.5, ExperimentSeed^1),
		"sched":    cellSpec(SiaClusterNodes, siaWorkload(1), PALPolicy, "las", 1.5, ExperimentSeed^1),
		"trace":    cellSpec(SiaClusterNodes, siaWorkload(2), PALPolicy, "fifo", 1.5, ExperimentSeed^1),
		"cluster":  cellSpec(2*SiaClusterNodes, siaWorkload(1), PALPolicy, "fifo", 1.5, ExperimentSeed^1),
		"perModel": cellSpec(SiaClusterNodes, siaWorkload(1), PALPolicy, "fifo", 1.5, ExperimentSeed^1),
	}
	for name, spec := range mutations {
		if name != "perModel" {
			spec.Locality.PerModel = true
		}
		if key(spec) == ref {
			t.Errorf("mutating %s does not change the key (stale-cache hazard)", name)
		}
	}
	if key(testbedSpec(PALPolicy, true)) == key(testbedSpec(PALPolicy, false)) {
		t.Error("the stale profile does not feed the key")
	}
	synergyRef := key(synergySpec(scale, 8, PALPolicy, "fifo", SynergyLacross, false))
	if key(synergySpec(scale, 8, PALPolicy, "fifo", SynergyLacross, true)) == synergyRef {
		t.Error("recording GPUs in use does not feed the key")
	}
	// The Synergy cells' measure window follows the scale, so each end
	// of it must move the key.
	first := synergySpec(scale, 8, PALPolicy, "fifo", SynergyLacross, false)
	first.Engine.MeasureFirst++
	last := synergySpec(scale, 8, PALPolicy, "fifo", SynergyLacross, false)
	last.Engine.MeasureLast++
	if key(first) == synergyRef {
		t.Error("engine.measure_first does not feed the key (stale-cache hazard)")
	}
	if key(last) == synergyRef {
		t.Error("engine.measure_last does not feed the key (stale-cache hazard)")
	}
}

// TestSiaBaselineCacheKeyedOnScale is the regression test for the old
// siaCache hazard: the same process asking for two different penalty/
// trace configurations must get results for each configuration, not a
// stale replay of the first. RunSiaBaseline on disjoint trace sets must
// produce runs for exactly the requested workloads.
func TestSiaBaselineCacheKeyedOnScale(t *testing.T) {
	withPool(t, 2, func() {
		a := QuickScale()
		a.SiaTraces = []int{1}
		b := QuickScale()
		b.SiaTraces = []int{3}

		runsA, err := RunSiaBaseline(a)
		if err != nil {
			t.Fatal(err)
		}
		runsB, err := RunSiaBaseline(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(runsA) != 1 || runsA[0].WorkloadIdx != 1 {
			t.Fatalf("scale A returned %+v", runsA)
		}
		if len(runsB) != 1 || runsB[0].WorkloadIdx != 3 {
			t.Fatalf("scale B returned runs for the wrong workloads: %+v", runsB)
		}
		// Workload 3 under PAL must differ from workload 1 under PAL —
		// the old name-keyed cache could alias them under a matching key.
		if runsA[0].Results[PALPolicy] == runsB[0].Results[PALPolicy] {
			t.Error("different scales shared one cached result")
		}
	})
}

// TestRunCellsMatchesSequentialRun: RunCells must agree with building
// and running each cell in a loop, result for result.
func TestRunCellsMatchesSequentialRun(t *testing.T) {
	scale := QuickScale()
	scale.SiaTraces = []int{5}
	specs := SiaBaselineSpecs(scale)

	var loop []float64
	for _, spec := range specs {
		loop = append(loop, runCell(t, spec).Makespan)
	}
	withPool(t, 4, func() {
		results, err := RunCells(scale.ctx(), "test", specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if res.Makespan != loop[i] {
				t.Errorf("spec %d: pool makespan %v != sequential %v", i, res.Makespan, loop[i])
			}
		}
	})
}
