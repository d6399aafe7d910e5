package core

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/vprof"
)

// longhornFragmented returns a cluster of the given topology with about
// half its GPUs held by single-GPU background jobs, a binned Longhorn
// profile for it, and a batch of jobs of mixed demand and class that
// fits the rest: single-GPU, within-node (packedUnder), rack-sized and
// spanning picks all occur.
func longhornFragmented(topo cluster.Topology) (*cluster.Cluster, *vprof.Binned, []*sim.Job) {
	c := cluster.New(topo)
	r := rng.New(1)
	for g := 0; g < c.Size(); g++ {
		if r.Float64() < 0.5 {
			c.Allocate(1000+g, []cluster.GPUID{cluster.GPUID(g)})
		}
	}
	scores := vprof.BinProfile(vprof.GenerateLonghorn(c.Size(), 42))
	var jobs []*sim.Job
	for i, d := range []int{1, 2, 3, 4, 8, 1, 2, 4, 16, 1, 3, 2} {
		jobs = append(jobs, mkJob(i, d, vprof.Class(i%scores.NumClasses())))
	}
	return c, scores, jobs
}

// settle places the jobs round after round the way the engine does —
// each job's PrevAlloc is a copy of the allocation it was last handed —
// until a round keeps every job's GPUs, and reports whether one did.
func settle(p sim.Placer, c *cluster.Cluster, jobs []*sim.Job) bool {
	for round := 0; round < 20; round++ {
		out := p.PlaceRound(c, jobs, 0)
		kept := round > 0
		for _, j := range jobs {
			if !sameSet(j.PrevAlloc, out[j.Spec.ID]) {
				kept = false
			}
			j.PrevAlloc = slices.Clone(out[j.Spec.ID])
		}
		if kept {
			return true
		}
	}
	return false
}

// TestPlaceRoundAllocs pins the hysteresis placers' garbage: once the
// placer is warm, a round allocates nothing, whether it is a fixpoint —
// every job keeps its previous GPUs — or a round of fresh picks, which
// land in the placer's arena for the engine to copy out.
func TestPlaceRoundAllocs(t *testing.T) {
	flat := cluster.Topology{NumNodes: 64, GPUsPerNode: 4}
	racked := cluster.Topology{NumNodes: 64, GPUsPerNode: 4, NodesPerRack: 4}
	cases := []struct {
		name string
		topo cluster.Topology
		make func(vprof.BinnedScorer) sim.Placer
	}{
		{"pm-first", flat, func(s vprof.BinnedScorer) sim.Placer { return NewPMFirst(s) }},
		{"pal", flat, func(s vprof.BinnedScorer) sim.Placer { return NewPAL(s, 1.7, nil) }},
		{"pal-rack", racked, func(s vprof.BinnedScorer) sim.Placer {
			p := NewPAL(s, 1.7, nil)
			p.EnableRackLevel(1.3)
			return p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, scores, jobs := longhornFragmented(tc.topo)
			p := tc.make(scores)
			if !settle(p, c, jobs) {
				t.Fatal("no fixpoint within 20 rounds")
			}
			if got := testing.AllocsPerRun(20, func() { p.PlaceRound(c, jobs, 0) }); got != 0 {
				t.Errorf("fixpoint round: %v allocations, want 0", got)
			}
			for _, j := range jobs {
				j.PrevAlloc = nil
			}
			if got := testing.AllocsPerRun(20, func() { p.PlaceRound(c, jobs, 0) }); got != 0 {
				t.Errorf("fresh round: %v allocations, want 0", got)
			}
		})
	}
}

// BenchmarkPlaceRound times one placement round of PAL and PM-First on
// a fragmented 64x4 Longhorn cluster: "fresh" places jobs with no
// previous allocation, "kept" a round at a fixpoint.
func BenchmarkPlaceRound(b *testing.B) {
	placers := []struct {
		name string
		make func(vprof.BinnedScorer) sim.Placer
	}{
		{"pal", func(s vprof.BinnedScorer) sim.Placer { return NewPAL(s, 1.7, nil) }},
		{"pm-first", func(s vprof.BinnedScorer) sim.Placer { return NewPMFirst(s) }},
	}
	for _, pl := range placers {
		for _, mode := range []string{"fresh", "kept"} {
			b.Run(pl.name+"/"+mode, func(b *testing.B) {
				c, scores, jobs := longhornFragmented(cluster.Topology{NumNodes: 64, GPUsPerNode: 4})
				p := pl.make(scores)
				if mode == "kept" && !settle(p, c, jobs) {
					b.Fatal("no fixpoint within 20 rounds")
				}
				p.PlaceRound(c, jobs, 0) // build the score orders untimed
				b.ReportAllocs()
				for b.Loop() {
					p.PlaceRound(c, jobs, 0)
				}
			})
		}
	}
}
