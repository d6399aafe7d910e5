package experiments

import (
	"bytes"
	"testing"

	"repro/internal/runner"
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

// TestRunSpecKeyDiscriminates: the content-addressed key must separate
// configurations that the old name-string caches conflated — different
// penalties, seeds, scales and profiles — and must be stable for equal
// content even across regenerated traces.
func TestRunSpecKeyDiscriminates(t *testing.T) {
	base := func() RunSpec {
		return RunSpec{
			Trace:   SiaTrace(1),
			Topo:    SiaTopology(),
			Sched:   FIFOSched,
			Policy:  PALPolicy,
			Profile: LonghornProfile(64),
			Lacross: 1.5,
			Seed:    ExperimentSeed,
		}
	}
	// Regenerated traces and shared profiles hash by content: same key.
	if base().Key() != base().Key() {
		t.Fatal("equal specs have different keys")
	}
	mutations := map[string]func(*RunSpec){
		"penalty": func(s *RunSpec) { s.Lacross = 2.0 },
		"seed":    func(s *RunSpec) { s.Seed++ },
		"policy":  func(s *RunSpec) { s.Policy = Tiresias },
		"sched":   func(s *RunSpec) { s.Sched = LASSched },
		"trace":   func(s *RunSpec) { s.Trace = SiaTrace(2) },
		"profile": func(s *RunSpec) { s.Profile = LonghornProfile(128) },
		"view":    func(s *RunSpec) { s.ProfiledView = TestbedProfile() },
		"measure": func(s *RunSpec) { s.MeasureFirst = 10 },
		"util":    func(s *RunSpec) { s.RecordUtil = true },
		"modelL":  func(s *RunSpec) { s.ModelLacross = map[string]float64{"vgg19": 2.0} },
	}
	ref := base().Key()
	for name, mutate := range mutations {
		s := base()
		mutate(&s)
		if s.Key() == ref {
			t.Errorf("mutating %s does not change the key (stale-cache hazard)", name)
		}
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

// TestRunAllMatchesSequentialRun: RunAll must agree with a plain Run
// loop result-for-result.
func TestRunAllMatchesSequentialRun(t *testing.T) {
	scale := QuickScale()
	scale.SiaTraces = []int{5}
	specs := SiaBaselineSpecs(scale)

	var loop []float64
	for _, spec := range specs {
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		loop = append(loop, res.Makespan)
	}
	withPool(t, 4, func() {
		results, err := RunAll(scale.ctx(), "test", specs)
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
