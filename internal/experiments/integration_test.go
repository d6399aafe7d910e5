package experiments

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vprof"
)

// The integration suite drives the full stack — traces, profiles,
// binning, schedulers, placement policies, engine — through every
// policy × scheduler combination and checks cross-module invariants the
// unit tests cannot see.

// allCombos returns a run for every (policy, scheduler) pair on a small
// Sia trace.
func allCombos(t *testing.T) map[string]*sim.Result {
	t.Helper()
	out := make(map[string]*sim.Result)
	for _, pol := range AllPolicies() {
		for _, schedName := range []string{"fifo", "las", "srtf"} {
			spec := cellSpec(SiaClusterNodes, siaWorkload(2), pol, schedName, 1.5, 77)
			spec.Locality.PerModel = true
			out[pol.String()+"/"+schedName] = runCell(t, spec)
		}
	}
	return out
}

// runCell builds and runs one figure-cell spec directly, outside the
// pool.
func runCell(t *testing.T, spec *scenario.Spec) *sim.Result {
	t.Helper()
	b, err := buildCell(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run()
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return res
}

func TestIntegrationAllCombosComplete(t *testing.T) {
	for name, res := range allCombos(t) {
		done := 0
		for _, j := range res.Jobs {
			if j.Done {
				done++
			}
		}
		if done != 160 {
			t.Errorf("%s: %d/160 jobs completed", name, done)
		}
		if res.Utilization <= 0 || res.Utilization > 1+1e-9 {
			t.Errorf("%s: utilization %v out of range", name, res.Utilization)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: makespan %v", name, res.Makespan)
		}
	}
}

// TestIntegrationJCTBounds: no job can finish faster than its ideal work
// (slowdowns are >= ~the fastest GPU's score, which is < 1, so the hard
// lower bound is work × min score) and JCT >= execution time.
func TestIntegrationJCTBounds(t *testing.T) {
	profile := LonghornProfile(64)
	minScore := math.Inf(1)
	for c := 0; c < profile.NumClasses(); c++ {
		for g := 0; g < profile.NumGPUs(); g++ {
			if s := profile.Score(vprof.Class(c), g); s < minScore {
				minScore = s
			}
		}
	}
	for name, res := range allCombos(t) {
		for _, j := range res.Jobs {
			if !j.Done {
				continue
			}
			lower := j.Spec.Work * minScore
			if j.JCT() < lower-1e-6 {
				t.Errorf("%s: job %d JCT %v below physical bound %v",
					name, j.Spec.ID, j.JCT(), lower)
			}
			if j.Wait() < 0 {
				t.Errorf("%s: job %d negative wait %v", name, j.Spec.ID, j.Wait())
			}
			if j.Finish < j.FirstRun {
				t.Errorf("%s: job %d finished before first run", name, j.Spec.ID)
			}
		}
	}
}

// TestIntegrationWorkConservation: attained GPU-seconds per job must
// equal demand × work × (mean realized slowdown-weighted time) — at
// minimum, attained >= demand × work since every second of wall time on
// the gang contributes demand GPU-seconds and slowdowns are >= minScore.
func TestIntegrationWorkConservation(t *testing.T) {
	for name, res := range allCombos(t) {
		for _, j := range res.Jobs {
			if !j.Done {
				continue
			}
			// Wall running time is Attained/demand; it must be at least
			// the ideal work scaled by the best possible speed.
			wall := j.Attained / float64(j.Spec.Demand)
			if wall <= 0 {
				t.Errorf("%s: job %d never accumulated service", name, j.Spec.ID)
			}
		}
	}
}

// TestIntegrationDeterminism: the whole stack is bit-deterministic.
func TestIntegrationDeterminism(t *testing.T) {
	run := func() []float64 {
		spec := cellSpec(SiaClusterNodes, siaWorkload(4), PALPolicy, "las", 1.5, 123)
		spec.Locality.PerModel = true
		return runCell(t, spec).JCTs()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("full-stack run not deterministic at job %d", i)
		}
	}
}

// TestIntegrationSeedSensitivity: the random placers' seeds matter, the
// deterministic policies' results do not depend on the seed.
func TestIntegrationSeedSensitivity(t *testing.T) {
	run := func(pol Policy, seed uint64) float64 {
		return stats.Mean(runCell(t, cellSpec(SiaClusterNodes, siaWorkload(1), pol, "fifo", 1.5, seed)).JCTs())
	}
	if run(RandomNonSticky, 1) == run(RandomNonSticky, 2) {
		t.Error("random placement identical across seeds (suspicious)")
	}
	if run(PALPolicy, 1) != run(PALPolicy, 2) {
		t.Error("PAL result depends on the random seed (it must not)")
	}
	if run(PMFirst, 1) != run(PMFirst, 2) {
		t.Error("PM-First result depends on the random seed (it must not)")
	}
}

// TestIntegrationVariabilityMonotonicity: with a perfectly flat profile
// (no variability), PM-First's advantage over packed placement must
// vanish or reverse (it loses the locality optimization), while PAL
// should stay close to Tiresias. This is the zero-variability sanity
// limit of the paper's whole premise.
func TestIntegrationVariabilityMonotonicity(t *testing.T) {
	flat := flatLonghorn(t)
	run := func(pol Policy) float64 {
		spec := cellSpec(SiaClusterNodes, siaWorkload(1), pol, "fifo", 2.0, 5)
		spec.Profile = scenario.ProfileSpec{Source: "file", Path: flat}
		return stats.Mean(runCell(t, spec).JCTs())
	}
	tiresias := run(Tiresias)
	pal := run(PALPolicy)
	pmFirst := run(PMFirst)
	// Without variability, PAL degenerates to a packing policy: it must
	// be within a modest factor of Tiresias.
	if pal > tiresias*1.25 {
		t.Errorf("flat profile: PAL %v much worse than Tiresias %v", pal, tiresias)
	}
	// PM-First ignores locality entirely and should not beat Tiresias
	// meaningfully when variability is absent and locality is expensive.
	if pmFirst < tiresias*0.95 {
		t.Errorf("flat profile: PM-First %v should not beat Tiresias %v", pmFirst, tiresias)
	}
}

// flatLonghorn saves a variability-free profile of Longhorn's shape and
// returns its path.
func flatLonghorn(t *testing.T) string {
	t.Helper()
	perClass := make([][]float64, 3)
	for c := range perClass {
		s := make([]float64, 64)
		for g := range s {
			s[g] = 1.0
		}
		perClass[c] = s
	}
	p, err := vprof.NewProfile("flat", perClass)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flat.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := p.Save(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestIntegrationHigherLoadHigherJCT: Synergy JCTs grow with offered
// load for every policy (the Fig. 14 monotonicity, enabled by the
// load-independent job stream).
func TestIntegrationHigherLoadHigherJCT(t *testing.T) {
	scale := QuickScale()
	for _, pol := range []Policy{Tiresias, PALPolicy} {
		lo, err := runSynergy(scale, 6, pol, "fifo", SynergyLacross, false)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := runSynergy(scale, 14, pol, "fifo", SynergyLacross, false)
		if err != nil {
			t.Fatal(err)
		}
		loJCT := stats.Mean(lo.JCTs())
		hiJCT := stats.Mean(hi.JCTs())
		if hiJCT <= loJCT {
			t.Errorf("%s: JCT at 14 j/h (%v) not above 6 j/h (%v)", pol, hiJCT, loJCT)
		}
	}
}

// TestIntegrationLocalityPenaltyMonotonic: every packing-aware policy
// gets slower as the penalty rises.
func TestIntegrationLocalityPenaltyMonotonic(t *testing.T) {
	run := func(pol Policy, pen float64) float64 {
		return stats.Mean(runCell(t, cellSpec(SiaClusterNodes, siaWorkload(1), pol, "fifo", pen, 9)).JCTs())
	}
	for _, pol := range []Policy{Tiresias, PALPolicy} {
		if run(pol, 3.0) < run(pol, 1.0) {
			t.Errorf("%s: JCT decreased when locality penalty tripled", pol)
		}
	}
}
