package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/place"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/vprof"
)

// sameSet reports whether two allocations hold the same GPUs.
func sameSet(a, b []cluster.GPUID) bool {
	return len(a) == len(b) && !slices.ContainsFunc(b, func(g cluster.GPUID) bool {
		return !slices.Contains(a, g)
	})
}

// TestPlaceRoundFixpointOrderIndependent pins the fact the engine's
// placement-fixpoint regime rests on (sim.FixpointPlacer): once a round
// kept every job on its previous GPUs, placing the same jobs again keeps
// them again — in any order of need. Rounds are iterated the way the
// engine runs them: every job's PrevAlloc is its last allocation and the
// cluster's free state excludes only GPUs held by jobs outside the set.
func TestPlaceRoundFixpointOrderIndependent(t *testing.T) {
	reached := 0
	check := func(seed uint64) bool {
		r := rng.New(seed)
		perClass := make([][]float64, 3)
		for c := range perClass {
			perClass[c] = make([]float64, 16)
			for g := range perClass[c] {
				// Few distinct values, so ties and equal-quality moves occur.
				perClass[c][g] = 0.9 + 0.3*float64(r.Intn(5))
			}
		}
		f := newFake(perClass)
		noPriority := NewPMFirst(f)
		noPriority.NoClassPriority = true
		placers := []sim.Placer{NewPMFirst(f), noPriority, NewPAL(f, 1.0+2*r.Float64(), nil)}
		for _, p := range placers {
			c := topo16()
			for i := r.Intn(5); i > 0; i-- {
				if g := cluster.GPUID(r.Intn(16)); c.IsFree(g) {
					c.Allocate(1000+i, []cluster.GPUID{g})
				}
			}
			var jobs []*sim.Job
			for left := c.NumFree(); left > 0 && len(jobs) < 6; {
				d := min(1+r.Intn(4), left)
				jobs = append(jobs, mkJob(len(jobs), d, vprof.Class(r.Intn(3))))
				left -= d
			}

			fixpoint := false
			for round := 0; round < 20 && !fixpoint; round++ {
				out := p.PlaceRound(c, jobs, 0)
				fixpoint = round > 0
				for _, j := range jobs {
					alloc := out[j.Spec.ID]
					if !sameSet(j.PrevAlloc, alloc) {
						fixpoint = false
					}
					j.PrevAlloc = slices.Clone(alloc)
				}
			}
			if !fixpoint {
				continue
			}
			reached++
			for k := 0; k < 6; k++ {
				need := slices.Clone(jobs)
				rng.Shuffle(r, need)
				out := p.PlaceRound(c, need, 0)
				for _, j := range jobs {
					if !sameSet(j.PrevAlloc, out[j.Spec.ID]) {
						t.Logf("seed %d, %s: job %d moved %v -> %v under a permuted need",
							seed, p.Name(), j.Spec.ID, j.PrevAlloc, out[j.Spec.ID])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if reached == 0 {
		t.Fatal("no batch reached a fixpoint; the permutation check is vacuous")
	}
}

// TestFixpointCapability: PAL and PM-First declare stable fixpoints only
// with hysteresis on and over static scores; no baseline placer
// declares any.
func TestFixpointCapability(t *testing.T) {
	stable := func(p sim.Placer) bool {
		fp, ok := p.(sim.FixpointPlacer)
		return ok && fp.FixpointStable()
	}
	f := newFake(uniformScores(make([]float64, 16), 1))

	pmf, pal := NewPMFirst(f), NewPAL(f, 1.5, nil)
	if !stable(pmf) || !stable(pal) {
		t.Fatal("PM-First and PAL with hysteresis over static scores must declare stable fixpoints")
	}
	pmf.NoClassPriority = true
	if !stable(pmf) {
		t.Error("the class-priority ablation must keep the capability (fixpoints are order-independent)")
	}
	pmf.NoHysteresis, pal.NoHysteresis = true, true
	if stable(pmf) || stable(pal) {
		t.Error("NoHysteresis placers declare stable fixpoints")
	}

	online := NewOnlineScorer(f)
	if stable(NewPMFirst(online)) || stable(NewPAL(online, 1.5, nil)) {
		t.Error("placers over the online scorer declare stable fixpoints")
	}

	for _, name := range place.Names() {
		if name == "pal" || name == "pm-first" {
			continue
		}
		p, err := place.Build(name, place.BuildEnv{Scores: f, Lacross: 1.5, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(sim.FixpointPlacer); ok {
			t.Errorf("baseline placer %s implements sim.FixpointPlacer", name)
		}
	}
}
