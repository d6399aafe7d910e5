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
	"math/bits"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Packed is the soft-consolidation placement policy. For each job it
// prefers the tightest single node that fits (best fit); jobs larger than
// any node's free capacity take the fullest-free nodes first, minimizing
// the number of nodes spanned.
//
// A round packs its jobs against a placer-local index built once from
// the cluster's per-node free counts: one node bitset per free count, so
// best fit is a walk over the handful of counts instead of a scan over
// every node, and ascending bit order is ascending node order, the tied
// list the RNG draws from. The round's own reservations update that
// index and a per-GPU mark; the cluster itself is never written. The
// allocations are consecutive runs of one per-round arena, so a warm
// round allocates nothing.
type Packed struct {
	sticky  bool
	rng     *rng.RNG
	scratch packScratch
	arena   []cluster.GPUID         // the round's allocations, back to back
	out     map[int][]cluster.GPUID // returned map, reused across rounds
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
	p.scratch.index(v)
	// The round places at most the free GPUs, so the arena never moves
	// while the slices handed out so far point into it.
	arena := p.arena[:0]
	if cap(arena) < v.NumFree() {
		arena = make([]cluster.GPUID, 0, v.Size())
	}
	for _, j := range need {
		start := len(arena)
		arena = p.scratch.packJob(arena, v, j.Spec.Demand, p.rng)
		p.out[j.Spec.ID] = arena[start:len(arena):len(arena)]
	}
	p.arena = arena
	return p.out
}

// resetOut empties a placer's reusable result map, creating it on first
// use. The engine reads the map, and copies the allocations in it,
// before the next round (sim.Placer).
func resetOut(out map[int][]cluster.GPUID) map[int][]cluster.GPUID {
	if out == nil {
		return make(map[int][]cluster.GPUID)
	}
	clear(out)
	return out
}

// nodeFree pairs a node with its free-GPU count for the spill walk.
type nodeFree struct {
	node cluster.NodeID
	free int
}

// packScratch is the packing walk's state for one round: each node's
// free count net of the round's reservations, the nodes grouped by that
// count, a mark on every reserved GPU, and reusable walk buffers. A
// placer keeps one across rounds, so its steady-state rounds allocate
// nothing.
type packScratch struct {
	per   int   // GPUs per node
	words int   // uint64 words per node bitset
	free  []int // free[n] is node n's unreserved free GPUs
	// byFree holds one node bitset per free count f in 0..per, at words
	// [f*words, (f+1)*words); count[f] is its population.
	byFree []uint64
	count  []int
	// taken[g] == gen marks GPU g reserved this round; index bumps gen,
	// so the marks need no clearing.
	taken []uint32
	gen   uint32
	nodes []nodeFree
	gpus  []cluster.GPUID
}

// PackJob computes a packed allocation of demand GPUs from the cluster's
// current free state, querying only the read-only occupancy view (the
// per-node free counts are O(1) index lookups). r breaks ties between
// equally-attractive nodes and picks which free GPUs of the chosen node
// to use; pass nil for fully deterministic (lowest-ID) behavior.
func PackJob(c cluster.View, demand int, r *rng.RNG) []cluster.GPUID {
	var s packScratch
	s.index(c)
	return s.packJob(make([]cluster.GPUID, 0, demand), c, demand, r)
}

// index starts a round: it loads every node's free count from the
// cluster's occupancy index and forgets the previous round's
// reservations.
func (s *packScratch) index(c cluster.View) {
	per, nodes := c.GPUsPerNode(), c.NumNodes()
	if s.per != per || len(s.free) != nodes {
		s.per, s.words = per, (nodes+63)/64
		s.free = make([]int, nodes)
		s.byFree = make([]uint64, (per+1)*s.words)
		s.count = make([]int, per+1)
		s.taken = make([]uint32, c.Size())
		s.gen = 0
	}
	if s.gen++; s.gen == 0 {
		// The generation wrapped: clear the marks so none aliases it.
		clear(s.taken)
		s.gen = 1
	}
	clear(s.byFree)
	clear(s.count)
	for n := range s.free {
		f := c.FreeOnNode(cluster.NodeID(n))
		s.free[n] = f
		s.byFree[f*s.words+n/64] |= 1 << (n % 64)
		s.count[f]++
	}
}

// nth returns the k-th node, in ascending ID order, among those with f
// free GPUs (k < count[f]).
func (s *packScratch) nth(f, k int) cluster.NodeID {
	for w, word := range s.byFree[f*s.words : (f+1)*s.words] {
		if c := bits.OnesCount64(word); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			word &= word - 1
		}
		return cluster.NodeID(w*64 + bits.TrailingZeros64(word))
	}
	panic("place: node index out of step with its counts")
}

// packJob reserves a packed allocation of demand GPUs against the
// round's index and appends it to dst.
func (s *packScratch) packJob(dst []cluster.GPUID, c cluster.View, demand int, r *rng.RNG) []cluster.GPUID {
	// Best fit: the smallest sufficient free count; the RNG picks one of
	// the nodes tied at it.
	for f := max(demand, 1); f <= s.per; f++ {
		if tied := s.count[f]; tied > 0 {
			k := 0
			if r != nil && tied > 1 {
				k = r.Intn(tied)
			}
			return s.take(dst, c, s.nth(f, k), demand, r)
		}
	}

	nodes := s.nodes[:0]
	for n, f := range s.free {
		if f > 0 {
			nodes = append(nodes, nodeFree{node: cluster.NodeID(n), free: f})
		}
	}
	s.nodes = nodes

	// Spill across nodes: fullest-free nodes first to minimize the span;
	// ties between equally-full nodes are randomized. The walk visits the
	// shuffled nodes one free count at a time, from full down, which is
	// the order a stable sort by descending free count would give.
	if r != nil {
		rng.Shuffle(r, nodes)
	}
	want := len(dst) + demand
	for f := s.per; f > 0 && len(dst) < want; f-- {
		for _, nf := range nodes {
			if nf.free != f {
				continue
			}
			dst = s.take(dst, c, nf.node, min(want-len(dst), f), r)
			if len(dst) == want {
				break
			}
		}
	}
	return dst
}

// take reserves up to n of the node's unreserved free GPUs and appends
// them to dst: a random subset when r is non-nil, else the lowest IDs.
func (s *packScratch) take(dst []cluster.GPUID, c cluster.View, node cluster.NodeID, n int, r *rng.RNG) []cluster.GPUID {
	free := s.gpus[:0]
	base := cluster.GPUID(int(node) * s.per)
	for g := base; g < base+cluster.GPUID(s.per); g++ {
		if c.IsFree(g) && s.taken[g] != s.gen {
			free = append(free, g)
		}
	}
	s.gpus = free
	if r != nil {
		rng.Shuffle(r, free)
	}
	n = min(n, len(free))
	for _, g := range free[:n] {
		s.taken[g] = s.gen
	}
	// Move the node to its new free count's bitset.
	from := s.free[node]
	to := from - n
	word, bit := int(node)/64, uint64(1)<<(int(node)%64)
	s.byFree[from*s.words+word] &^= bit
	s.byFree[to*s.words+word] |= bit
	s.count[from]--
	s.count[to]++
	s.free[node] = to
	return append(dst, free[:n]...)
}

// Random is the scattered placement policy: each job receives a uniform
// random subset of the free GPUs — the next run of the round's shuffled
// free list, handed out in place.
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
	rng.Shuffle(r.rng, free)
	idx := 0
	for _, j := range need {
		next := idx + j.Spec.Demand
		r.out[j.Spec.ID] = free[idx:next:next]
		idx = next
	}
	return r.out
}

var (
	_ sim.Placer = (*Packed)(nil)
	_ sim.Placer = (*Random)(nil)
)
