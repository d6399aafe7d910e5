// Package place implements the baseline placement policies the paper
// compares against (§IV-A1):
//
//   - Packed ("soft-consolidated"): minimize the number of nodes a job
//     spans to reduce inter-node communication. Packed-Sticky is what
//     Tiresias deploys, Packed-Non-Sticky is what Gandiva deploys, so the
//     experiment tables label those configurations "Tiresias" and
//     "Gandiva".
//   - Random ("scattered"): sample a uniform random subset of the free
//     GPUs (used by e.g. Amaral et al. and HotGauge to spread thermal
//     load), in Sticky and Non-Sticky flavors.
//
// All baselines are variability-agnostic: they assume iso-architecture
// GPUs deliver identical performance. Which concrete GPU a packed policy
// hands out among equally-packed choices is therefore arbitrary in a real
// system; we model that arbitrariness with a seeded RNG (ties between
// equally-full nodes and GPU picks within a node are randomized). That is
// what makes Gandiva's non-sticky re-placement re-roll GPU quality every
// round — the effect §V-B measures when comparing Sticky vs Non-Sticky.
package place

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Packed is the soft-consolidation placement policy. For each job it
// prefers the tightest single node that fits (best fit); jobs larger than
// any node's free capacity take the fullest-free nodes first, minimizing
// the number of nodes spanned.
type Packed struct {
	sticky   bool
	rng      *rng.RNG
	scratch  packScratch
	reserved []cluster.GPUID         // a round's in-flight reservations
	out      map[int][]cluster.GPUID // returned map, reused across rounds
}

// NewPacked returns a Packed placer with the given stickiness.
// NewPacked(true, seed) is the paper's "Tiresias" configuration,
// NewPacked(false, seed) its "Gandiva" configuration.
func NewPacked(sticky bool, seed uint64) *Packed {
	return &Packed{sticky: sticky, rng: rng.New(seed)}
}

// Name implements sim.Placer.
func (p *Packed) Name() string {
	if p.sticky {
		return "tiresias(packed-sticky)"
	}
	return "gandiva(packed-non-sticky)"
}

// Sticky implements sim.Placer.
func (p *Packed) Sticky() bool { return p.sticky }

// PlaceRound implements sim.Placer.
func (p *Packed) PlaceRound(c *cluster.Cluster, need []*sim.Job, _ float64) map[int][]cluster.GPUID {
	p.out = resetOut(p.out)
	v := c.View()
	reserved := p.reserved[:0]
	for _, j := range need {
		alloc := p.scratch.packJob(v, j.Spec.Demand, p.rng)
		c.Allocate(j.Spec.ID, alloc)
		reserved = append(reserved, alloc...)
		p.out[j.Spec.ID] = alloc
	}
	p.reserved = reserved
	// The engine performs the real allocation from the returned map;
	// release our in-flight reservations so it sees the GPUs as free.
	c.Release(reserved)
	return p.out
}

// resetOut empties a placer's reusable result map, creating it on first
// use. The engine reads the map before the next round (sim.Placer) and
// keeps only the fresh slices in it.
func resetOut(out map[int][]cluster.GPUID) map[int][]cluster.GPUID {
	if out == nil {
		return make(map[int][]cluster.GPUID)
	}
	clear(out)
	return out
}

// nodeFree pairs a node with its free-GPU count for the packing walks.
type nodeFree struct {
	node cluster.NodeID
	free int
}

// packScratch holds the reusable buffers the packing walk scans into, so
// a placer's steady-state rounds allocate only the returned allocation
// slices (which the engine retains — those must stay fresh).
type packScratch struct {
	nodes []nodeFree
	tied  []cluster.NodeID
	free  []cluster.GPUID
}

// PackJob computes a packed allocation of demand GPUs from the cluster's
// current free state, querying only the read-only occupancy view (the
// per-node free counts are O(1) index lookups). r breaks ties between
// equally-attractive nodes and picks which free GPUs of the chosen node
// to use; pass nil for fully deterministic (lowest-ID) behavior.
func PackJob(c cluster.View, demand int, r *rng.RNG) []cluster.GPUID {
	var s packScratch
	return s.packJob(c, demand, r)
}

// packJob is PackJob over reusable scratch buffers.
func (s *packScratch) packJob(c cluster.View, demand int, r *rng.RNG) []cluster.GPUID {
	if demand <= c.GPUsPerNode() {
		// Best fit: the smallest sufficient free count; collect all nodes
		// tied at that count and let the RNG pick one.
		bestFree := -1
		tied := s.tied[:0]
		for n := 0; n < c.NumNodes(); n++ {
			f := c.FreeOnNode(cluster.NodeID(n))
			if f == 0 || f < demand {
				continue
			}
			switch {
			case bestFree == -1 || f < bestFree:
				bestFree = f
				tied = tied[:0]
				tied = append(tied, cluster.NodeID(n))
			case f == bestFree:
				tied = append(tied, cluster.NodeID(n))
			}
		}
		s.tied = tied
		if len(tied) > 0 {
			pick := tied[0]
			if r != nil && len(tied) > 1 {
				pick = tied[r.Intn(len(tied))]
			}
			return s.appendFromNode(make([]cluster.GPUID, 0, demand), c, pick, demand, r)
		}
	}

	nodes := s.nodes[:0]
	for n := 0; n < c.NumNodes(); n++ {
		if f := c.FreeOnNode(cluster.NodeID(n)); f > 0 {
			nodes = append(nodes, nodeFree{node: cluster.NodeID(n), free: f})
		}
	}
	s.nodes = nodes

	// Spill across nodes: fullest-free nodes first to minimize the span;
	// ties between equally-full nodes are randomized (the shuffle before
	// the stable sort).
	if r != nil {
		r.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	}
	slices.SortStableFunc(nodes, func(a, b nodeFree) int { return b.free - a.free })
	alloc := make([]cluster.GPUID, 0, demand)
	for _, nf := range nodes {
		if len(alloc) == demand {
			break
		}
		take := demand - len(alloc)
		if take > nf.free {
			take = nf.free
		}
		alloc = s.appendFromNode(alloc, c, nf.node, take, r)
	}
	return alloc
}

// appendFromNode appends up to n free GPUs on the node to dst: a random
// subset when r is non-nil, else the lowest IDs.
func (s *packScratch) appendFromNode(dst []cluster.GPUID, c cluster.View, node cluster.NodeID, n int, r *rng.RNG) []cluster.GPUID {
	free := s.free[:0]
	base := cluster.GPUID(int(node) * c.GPUsPerNode())
	for g := base; g < base+cluster.GPUID(c.GPUsPerNode()); g++ {
		if c.IsFree(g) {
			free = append(free, g)
		}
	}
	s.free = free
	if r != nil {
		r.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	}
	if n > len(free) {
		n = len(free)
	}
	return append(dst, free[:n]...)
}

// Random is the scattered placement policy: each job receives a uniform
// random subset of the free GPUs.
type Random struct {
	sticky bool
	rng    *rng.RNG
	free   []cluster.GPUID         // the round's free list, reused
	out    map[int][]cluster.GPUID // returned map, reused across rounds
}

// NewRandom returns a Random placer seeded deterministically.
func NewRandom(sticky bool, seed uint64) *Random {
	return &Random{sticky: sticky, rng: rng.New(seed)}
}

// Name implements sim.Placer.
func (r *Random) Name() string {
	if r.sticky {
		return "random-sticky"
	}
	return "random-non-sticky"
}

// Sticky implements sim.Placer.
func (r *Random) Sticky() bool { return r.sticky }

// PlaceRound implements sim.Placer.
func (r *Random) PlaceRound(c *cluster.Cluster, need []*sim.Job, _ float64) map[int][]cluster.GPUID {
	r.out = resetOut(r.out)
	// The free list must be in ascending ID order (FreeGPUs' order): the
	// shuffle's outcome, and so every recorded result, depends on it.
	free := c.AppendFreeGPUs(r.free[:0])
	r.free = free
	r.rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	idx := 0
	for _, j := range need {
		r.out[j.Spec.ID] = slices.Clone(free[idx : idx+j.Spec.Demand])
		idx += j.Spec.Demand
	}
	return r.out
}

var (
	_ sim.Placer = (*Packed)(nil)
	_ sim.Placer = (*Random)(nil)
)
