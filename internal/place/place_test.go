package place

import (
	"maps"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

func mkCluster() *cluster.Cluster {
	return cluster.New(cluster.Topology{NumNodes: 4, GPUsPerNode: 4})
}

func mkJob(id, demand int) *sim.Job {
	return &sim.Job{Spec: trace.JobSpec{ID: id, Demand: demand, Work: 100}, Remaining: 100}
}

func TestPackJobSingleNode(t *testing.T) {
	c := mkCluster()
	alloc := PackJob(c.View(), 4, nil)
	if len(alloc) != 4 {
		t.Fatalf("alloc = %v", alloc)
	}
	if c.NodesSpanned(alloc) != 1 {
		t.Errorf("4-GPU job should fit one node, spanned %d", c.NodesSpanned(alloc))
	}
}

func TestPackJobBestFit(t *testing.T) {
	c := mkCluster()
	// Node 0 has 1 free, node 1 has 2 free, others full (allocate the rest).
	c.Allocate(1, []cluster.GPUID{0, 1, 2})
	c.Allocate(2, []cluster.GPUID{4, 5})
	c.Allocate(3, []cluster.GPUID{8, 9, 10, 11, 12, 13, 14, 15})
	// A 2-GPU job must pick node 1 (exactly 2 free), not split.
	alloc := PackJob(c.View(), 2, nil)
	if len(alloc) != 2 || c.NodesSpanned(alloc) != 1 {
		t.Fatalf("alloc = %v", alloc)
	}
	for _, g := range alloc {
		if c.NodeOf(g) != 1 {
			t.Errorf("best fit picked node %d, want 1", c.NodeOf(g))
		}
	}
	// A 1-GPU job must pick the tighter node 0.
	alloc1 := PackJob(c.View(), 1, nil)
	if c.NodeOf(alloc1[0]) != 0 {
		t.Errorf("1-GPU best fit picked node %d, want 0", c.NodeOf(alloc1[0]))
	}
}

func TestPackJobSpillMinimizesNodes(t *testing.T) {
	c := mkCluster()
	// 6-GPU job on 4-GPU nodes must span exactly 2 nodes.
	alloc := PackJob(c.View(), 6, nil)
	if len(alloc) != 6 {
		t.Fatalf("alloc size %d", len(alloc))
	}
	if got := c.NodesSpanned(alloc); got != 2 {
		t.Errorf("spanned %d nodes, want 2", got)
	}
}

func TestPackJobSpillPrefersFullestNodes(t *testing.T) {
	c := mkCluster()
	c.Allocate(1, []cluster.GPUID{0, 1, 2}) // node 0: 1 free
	// 5-GPU job: best packing is 4 (node with 4 free) + 1.
	alloc := PackJob(c.View(), 5, nil)
	if got := c.NodesSpanned(alloc); got != 2 {
		t.Errorf("spanned %d nodes, want 2", got)
	}
}

func TestPackedPlaceRound(t *testing.T) {
	c := mkCluster()
	p := NewPacked(true, 1)
	jobs := []*sim.Job{mkJob(0, 4), mkJob(1, 2), mkJob(2, 2)}
	out := p.PlaceRound(c, jobs, 0)
	if len(out) != 3 {
		t.Fatalf("placed %d jobs", len(out))
	}
	seen := map[cluster.GPUID]bool{}
	for id, alloc := range out {
		if len(alloc) != jobs[id].Spec.Demand {
			t.Errorf("job %d got %d GPUs", id, len(alloc))
		}
		for _, g := range alloc {
			if seen[g] {
				t.Fatalf("GPU %d double-assigned", g)
			}
			seen[g] = true
		}
	}
	// The placer must leave the cluster fully free for the engine.
	if c.NumFree() != 16 {
		t.Errorf("placer leaked reservations: %d free", c.NumFree())
	}
}

func TestPackedNames(t *testing.T) {
	if NewPacked(true, 1).Name() != "tiresias(packed-sticky)" {
		t.Error("sticky name")
	}
	if NewPacked(false, 1).Name() != "gandiva(packed-non-sticky)" {
		t.Error("non-sticky name")
	}
	if !NewPacked(true, 1).Sticky() || NewPacked(false, 1).Sticky() {
		t.Error("stickiness flags")
	}
}

func TestPackedRandomizedTieBreak(t *testing.T) {
	// With an RNG, repeated placements on an empty cluster should not
	// always pick the same node (all nodes tie at 4 free).
	r := rng.New(99)
	nodes := map[cluster.NodeID]bool{}
	for i := 0; i < 30; i++ {
		c := mkCluster()
		alloc := PackJob(c.View(), 2, r)
		nodes[c.NodeOf(alloc[0])] = true
	}
	if len(nodes) < 2 {
		t.Errorf("randomized tie-break always picked the same node")
	}
}

// TestPackedRoundMatchesJobByJob: a Packed round, which reserves
// against its own index without touching the cluster, hands out exactly
// what packing job by job against a cluster that really allocates each
// pick would, RNG draws included, across fragmented clusters and demand
// mixes that take both the best-fit and the spill paths.
func TestPackedRoundMatchesJobByJob(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		c := fragmented64x4(r)
		var jobs []*sim.Job
		for id, left := 0, c.NumFree(); ; id++ {
			d := 1 + r.Intn(10)
			if d > left {
				break
			}
			left -= d
			jobs = append(jobs, mkJob(id, d))
		}
		seed := r.Uint64()
		got := NewPacked(false, seed).PlaceRound(c, jobs, 0)

		ref := rng.New(seed)
		var held []cluster.GPUID
		for _, j := range jobs {
			want := PackJob(c.View(), j.Spec.Demand, ref)
			if !slices.Equal(got[j.Spec.ID], want) {
				t.Fatalf("trial %d job %d (demand %d): round gave %v, job by job %v",
					trial, j.Spec.ID, j.Spec.Demand, got[j.Spec.ID], want)
			}
			c.Allocate(j.Spec.ID, want)
			held = append(held, want...)
		}
		c.Release(held)
	}
}

// TestPackedReservationMarksWrap: after the round generation wraps, the
// marks a much earlier round left must not read as reservations.
func TestPackedReservationMarksWrap(t *testing.T) {
	c := fragmented64x4(rng.New(5))
	jobs := []*sim.Job{mkJob(0, 4), mkJob(1, 8), mkJob(2, 1), mkJob(3, 2), mkJob(4, 3)}
	plain, wrapped := NewPacked(false, 3), NewPacked(false, 3)
	for round := 0; round < 4; round++ {
		if round == 1 {
			// Round 0 left its marks at generation 1, which the wrap
			// hands out again.
			wrapped.scratch.gen = math.MaxUint32
		}
		want := maps.Clone(plain.PlaceRound(c, jobs, 0))
		if got := wrapped.PlaceRound(c, jobs, 0); !maps.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("round %d: %v after the wrap, want %v", round, got, want)
		}
	}
}

func TestRandomPlaceRound(t *testing.T) {
	c := mkCluster()
	p := NewRandom(false, 7)
	jobs := []*sim.Job{mkJob(0, 3), mkJob(1, 5)}
	out := p.PlaceRound(c, jobs, 0)
	seen := map[cluster.GPUID]bool{}
	for id, alloc := range out {
		if len(alloc) != jobs[id].Spec.Demand {
			t.Errorf("job %d got %d GPUs", id, len(alloc))
		}
		for _, g := range alloc {
			if seen[g] {
				t.Fatalf("GPU %d double-assigned", g)
			}
			seen[g] = true
		}
	}
}

func TestRandomDeterministicWithSeed(t *testing.T) {
	jobs := []*sim.Job{mkJob(0, 4)}
	a := NewRandom(true, 5).PlaceRound(mkCluster(), jobs, 0)
	b := NewRandom(true, 5).PlaceRound(mkCluster(), jobs, 0)
	for i := range a[0] {
		if a[0][i] != b[0][i] {
			t.Fatal("same seed, different placement")
		}
	}
}

func TestRandomSpreadsAcrossCluster(t *testing.T) {
	// Over many draws a random placer must touch most GPUs.
	p := NewRandom(false, 11)
	touched := map[cluster.GPUID]bool{}
	for i := 0; i < 50; i++ {
		c := mkCluster()
		out := p.PlaceRound(c, []*sim.Job{mkJob(0, 2)}, 0)
		for _, g := range out[0] {
			touched[g] = true
		}
	}
	if len(touched) < 12 {
		t.Errorf("random placement touched only %d GPUs", len(touched))
	}
}

func TestRandomNames(t *testing.T) {
	if NewRandom(true, 1).Name() != "random-sticky" {
		t.Error("sticky name")
	}
	if NewRandom(false, 1).Name() != "random-non-sticky" {
		t.Error("non-sticky name")
	}
}

// TestPackJobDemandSatisfiedProperty: whatever the free-state, PackJob
// must return exactly demand GPUs, all free and distinct, whenever enough
// are free.
func TestPackJobDemandSatisfiedProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		c := mkCluster()
		// Randomly occupy some GPUs.
		for g := 0; g < 16; g++ {
			if r.Float64() < 0.4 {
				c.Allocate(100+g, []cluster.GPUID{cluster.GPUID(g)})
			}
		}
		free := c.NumFree()
		if free == 0 {
			return true
		}
		demand := 1 + r.Intn(free)
		alloc := PackJob(c.View(), demand, r)
		if len(alloc) != demand {
			return false
		}
		seen := map[cluster.GPUID]bool{}
		for _, g := range alloc {
			if seen[g] || !c.IsFree(g) {
				return false
			}
			seen[g] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPackJobMinimalSpanProperty: the number of nodes spanned must equal
// the information-theoretic minimum given per-node free counts.
func TestPackJobMinimalSpanProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		c := mkCluster()
		for g := 0; g < 16; g++ {
			if r.Float64() < 0.3 {
				c.Allocate(100+g, []cluster.GPUID{cluster.GPUID(g)})
			}
		}
		if c.NumFree() == 0 {
			return true
		}
		demand := 1 + r.Intn(c.NumFree())
		alloc := PackJob(c.View(), demand, r)
		// Minimum span: greedily take nodes by descending free count.
		frees := make([]int, c.NumNodes())
		for n := range frees {
			frees[n] = c.FreeOnNode(cluster.NodeID(n))
		}
		// Selection sort descending (4 nodes).
		for i := 0; i < len(frees); i++ {
			for j := i + 1; j < len(frees); j++ {
				if frees[j] > frees[i] {
					frees[i], frees[j] = frees[j], frees[i]
				}
			}
		}
		minSpan, left := 0, demand
		for _, f := range frees {
			if left <= 0 {
				break
			}
			if f > 0 {
				minSpan++
				left -= f
			}
		}
		return c.NodesSpanned(alloc) == minSpan
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// fragmented64x4 returns a 64-node, 4-GPU-per-node cluster with about
// half its GPUs held by single-GPU background jobs, drawing from r.
func fragmented64x4(r *rng.RNG) *cluster.Cluster {
	c := cluster.New(cluster.Topology{NumNodes: 64, GPUsPerNode: 4})
	for g := 0; g < c.Size(); g++ {
		if r.Float64() < 0.5 {
			c.Allocate(1000+g, []cluster.GPUID{cluster.GPUID(g)})
		}
	}
	return c
}

// TestNonStickyPlaceRoundAllocs pins the baselines' per-round garbage:
// once a placer's scratch is warm, a round allocates nothing — the
// allocations are runs of placer-owned storage, which the engine copies
// out. Both the best-fit and the spill-across-nodes paths of Packed are
// exercised.
func TestNonStickyPlaceRoundAllocs(t *testing.T) {
	c := fragmented64x4(rng.New(7))
	jobs := []*sim.Job{mkJob(0, 4), mkJob(1, 8), mkJob(2, 1), mkJob(3, 2), mkJob(4, 3)}
	for _, p := range []sim.Placer{NewPacked(false, 1), NewRandom(false, 1)} {
		p.PlaceRound(c, jobs, 0) // warm the scratch, the arena and the map
		if got := testing.AllocsPerRun(50, func() { p.PlaceRound(c, jobs, 0) }); got != 0 {
			t.Errorf("%s: %v allocations per warm round, want 0", p.Name(), got)
		}
	}
}

func BenchmarkPackJob(b *testing.B) {
	r := rng.New(1)
	c := fragmented64x4(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc := PackJob(c.View(), 4, r)
		if len(alloc) != 4 {
			b.Fatal("pack failed")
		}
	}
}

func BenchmarkRandomPlaceRound(b *testing.B) {
	c := cluster.New(cluster.Topology{NumNodes: 64, GPUsPerNode: 4})
	p := NewRandom(false, 1)
	jobs := []*sim.Job{mkJob(0, 4), mkJob(1, 8), mkJob(2, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PlaceRound(c, jobs, 0)
	}
}
