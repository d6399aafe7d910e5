package core

import (
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vprof"
)

// PAL is the paper's flagship placement policy (§III-C, Algorithm 2):
// it co-optimizes Performance variability And Locality by traversing a
// per-class L×V matrix from smallest to largest combined slowdown.
//
// For a job with demand D:
//   - D == 1: locality is irrelevant; PAL makes the PM-First allocation.
//   - 1 < D <= GPUs-per-node: traverse the class's L×V matrix. Within-
//     node entries look for a packed allocation among GPUs whose binned
//     score is <= the entry's V; across-node entries fall back to a
//     PM-First pick over the same filtered set.
//   - D > GPUs-per-node: the job must span nodes and pay L_across anyway,
//     so PAL uses the PM-First policy (Algorithm 2 lines 23-25).
//
// Like PM-First, PAL is non-sticky and sorts the schedulable prefix by
// class before allocating.
type PAL struct {
	scorer   vprof.BinnedScorer
	lacross  float64
	modelL   map[string]float64 // optional per-model penalties (§IV-D)
	lrack    float64            // 0 disables the rack level
	matrices []*LVMatrix        // per class, built lazily
	modelMat map[string][]*LVMatrix
	cache    orderCache
	hyst     hysteresis

	// Scratch the fresh picks are written into (valid until the next
	// pick; the hysteresis loop copies out the picks it returns).
	pick    []cluster.GPUID   // the current pick; packedUnder's running best
	cand    []cluster.GPUID   // packedUnder's per-node candidate
	buckets [][]cluster.GPUID // rackUnder's per-rack accumulators

	// NoHysteresis disables previous-allocation reuse (ablation).
	NoHysteresis bool
}

// NewPAL builds a PAL placer from a binned profile and the inter-node
// locality penalty. modelLacross optionally overrides the penalty per
// model name (pass nil for a constant penalty).
func NewPAL(scorer vprof.BinnedScorer, lacross float64, modelLacross map[string]float64) *PAL {
	if lacross < 1.0 {
		lacross = 1.0
	}
	p := &PAL{
		scorer:   scorer,
		lacross:  lacross,
		modelL:   modelLacross,
		matrices: make([]*LVMatrix, scorer.NumClasses()),
		modelMat: make(map[string][]*LVMatrix),
	}
	return p
}

// EnableRackLevel turns on the three-level L×V extension: allocations
// spanning nodes within one rack pay penalty lrack (1 <= lrack <=
// L_across), and only rack-spanning allocations pay the full L_across.
// The cluster topology must define NodesPerRack for the level to bind,
// and the engine must be configured with the matching Config.Lrack.
// Matrices are rebuilt on the next placement. This extends the paper's
// two-level locality model (§III-C1 bounds the matrix by "the number of
// locality levels in the cluster").
func (p *PAL) EnableRackLevel(lrack float64) {
	if lrack < 1.0 {
		lrack = 1.0
	}
	if lrack > p.lacross {
		lrack = p.lacross
	}
	p.lrack = lrack
	p.matrices = make([]*LVMatrix, p.scorer.NumClasses())
	p.modelMat = make(map[string][]*LVMatrix)
}

// Name implements sim.Placer.
func (p *PAL) Name() string { return "pal" }

// Sticky implements sim.Placer: PAL is non-sticky (§IV-A1).
func (p *PAL) Sticky() bool { return false }

// FixpointStable implements sim.FixpointPlacer: with hysteresis on and
// static scores, a round in which every job kept its GPUs repeats until
// the job set changes.
func (p *PAL) FixpointStable() bool {
	return fixpointStable(p.scorer, placeOpts{noHysteresis: p.NoHysteresis})
}

// levels returns the locality-penalty column of the L×V matrix for the
// given across-node penalty: two levels in the paper's model, three when
// the rack extension is enabled.
func (p *PAL) levels(lacross float64) []float64 {
	if p.lrack > 0 {
		return []float64{1.0, min(p.lrack, lacross), lacross}
	}
	return []float64{1.0, lacross}
}

// Matrix returns the L×V matrix for a class under the constant penalty
// (building it on first use). Exposed for inspection by examples/tests.
func (p *PAL) Matrix(class vprof.Class) *LVMatrix {
	if int(class) >= len(p.matrices) {
		return nil
	}
	if p.matrices[class] == nil {
		m, err := BuildLV(p.levels(p.lacross), p.scorer.BinScores(class))
		if err != nil {
			panic(err) // bins come from the binning pipeline; cannot be empty
		}
		p.matrices[class] = m
	}
	return p.matrices[class]
}

// matrixFor returns the job's matrix, honoring per-model penalties.
func (p *PAL) matrixFor(j *sim.Job) *LVMatrix {
	if p.modelL != nil {
		if l, ok := p.modelL[j.Spec.Model]; ok && l != p.lacross {
			mats, cached := p.modelMat[j.Spec.Model]
			if !cached {
				mats = make([]*LVMatrix, p.scorer.NumClasses())
				p.modelMat[j.Spec.Model] = mats
			}
			class := int(j.Spec.Class)
			if mats[class] == nil {
				m, err := BuildLV(p.levels(max(l, 1.0)), p.scorer.BinScores(j.Spec.Class))
				if err != nil {
					panic(err)
				}
				mats[class] = m
			}
			return mats[class]
		}
	}
	return p.Matrix(j.Spec.Class)
}

// PlaceRound implements sim.Placer.
func (p *PAL) PlaceRound(c *cluster.Cluster, need []*sim.Job, now float64) map[int][]cluster.GPUID {
	v := c.View()
	o := p.cache.get(p.scorer, p.scorer.NumClasses(), v.Size(), v.GPUsPerNode())
	res := p.hyst.start(v, o)
	return p.hyst.place(need, placeOpts{noHysteresis: p.NoHysteresis},
		func(j *sim.Job) []cluster.GPUID { return p.placeJob(res, j) },
		func(j *sim.Job, gpus []cluster.GPUID) float64 { return p.lvProduct(v, o.score[j.Spec.Class], j, gpus) })
}

// lvProduct evaluates the combined locality × variability slowdown of an
// allocation for the job under the policy's (possibly per-model) penalty,
// mirroring the engine's Equation-1 locality model including the rack
// level when enabled. score is the job's class row of the round's score
// table.
func (p *PAL) lvProduct(c cluster.View, score []float64, j *sim.Job, gpus []cluster.GPUID) float64 {
	l := 1.0
	if c.MultiNode(gpus) {
		l = p.lacross
		if p.modelL != nil {
			if v, ok := p.modelL[j.Spec.Model]; ok {
				l = v
			}
		}
		if p.lrack > 0 && !c.MultiRack(gpus) {
			l = min(p.lrack, l)
		}
	}
	return l * maxScore(score, gpus)
}

// placeJob implements Algorithm 2 for one job against the round's
// current free set. The pick lives in the placer's scratch.
func (p *PAL) placeJob(c *reservation, j *sim.Job) []cluster.GPUID {
	d := j.Spec.Demand
	rackCap := 0
	if p.lrack > 0 && c.Topology().NodesPerRack > 0 {
		rackCap = c.Topology().NodesPerRack * c.GPUsPerNode()
	}
	localityBound := c.GPUsPerNode()
	if rackCap > localityBound {
		localityBound = rackCap
	}
	if d <= 1 || d > localityBound {
		// Single-GPU jobs have no locality dimension; jobs larger than
		// the deepest locality scope must spread regardless, so
		// variability is all that is left to optimize (Algorithm 2
		// lines 23-25).
		var ok bool
		p.pick, ok = c.takeBest(p.pick[:0], j.Spec.Class, d)
		if !ok {
			panic("core: PAL/PM-First path out of free GPUs")
		}
		return p.pick
	}
	m := p.matrixFor(j)
	class := j.Spec.Class
	last := len(m.Levels) - 1
	for _, e := range m.Entries {
		var alloc []cluster.GPUID
		switch {
		case e.Level == 0:
			// (L_within, V_i): look for a strictly packed allocation among
			// GPUs with binned score <= V_i. Choosing the d lowest-score
			// filtered GPUs on a node minimizes the allocation's max V, so
			// the exhaustive nCk enumeration of Algorithm 2 reduces to a
			// per-node greedy pick (GetMinV over packed candidate sets).
			if d <= c.GPUsPerNode() {
				alloc = p.packedUnder(c, class, d, e.V)
			}
		case e.Level == last:
			// (L_across, V_i): locality cost is acceptable at this point
			// in the traversal; make a PM-First pick over the filtered
			// free list.
			var ok bool
			if p.pick, ok = c.takeBestUnder(p.pick[:0], class, d, e.V); ok {
				alloc = p.pick
			}
		default:
			// (L_rack, V_i): rack-level extension — the best allocation
			// confined to a single rack.
			alloc = p.rackUnder(c, class, d, e.V)
		}
		if alloc != nil {
			return alloc
		}
	}
	// The last across-node entry filters at the worst bin score, which
	// admits every free GPU, so reaching here means the engine violated
	// its capacity guarantee.
	panic("core: PAL traversal exhausted with insufficient free GPUs")
}

// rackUnder finds the d lowest-score free GPUs with score <= v confined
// to a single rack, picking the rack whose d-th-best score is lowest. It
// walks the global ascending score order, so the first rack to
// accumulate d GPUs wins. The racks accumulate in the placer's
// scratch, and the pick is the winning rack's bucket.
func (p *PAL) rackUnder(c *reservation, class vprof.Class, d int, v float64) []cluster.GPUID {
	if c.Topology().NodesPerRack <= 0 {
		return nil
	}
	numRacks := c.NumRacks()
	if cap(p.buckets) < numRacks {
		p.buckets = make([][]cluster.GPUID, numRacks)
	}
	buckets := p.buckets[:numRacks]
	for r := range buckets {
		buckets[r] = buckets[r][:0]
	}
	score := c.order.score[class]
	for g := range c.available(class) {
		if score[g] > v {
			break
		}
		r := c.RackOf(g)
		buckets[r] = append(buckets[r], g)
		if len(buckets[r]) == d {
			return buckets[r]
		}
	}
	return nil
}

// packedUnder searches every node for a within-node allocation of d GPUs
// whose binned scores are all <= v, returning the one with the lowest max
// score. Ties between equally-good nodes break on a hash of the node ID
// so packed class-A traffic does not pile onto the lowest-numbered node
// (see newScoreOrder for why that matters). The running best lives in
// p.pick and each node's candidate in p.cand; a winning candidate swaps
// buffers with the best instead of being copied.
func (p *PAL) packedUnder(c *reservation, class vprof.Class, d int, v float64) []cluster.GPUID {
	found := false
	bestMax := 0.0
	bestTie := uint64(0)
	for n := 0; n < c.NumNodes(); n++ {
		// The occupancy index rules out undersupplied nodes in O(1),
		// before the per-GPU score walk.
		if c.FreeOnNode(cluster.NodeID(n)) < d {
			continue
		}
		cand, maxV, ok := c.takeNodeUnder(p.cand[:0], class, n, d, v)
		p.cand = cand
		if !ok {
			continue
		}
		tie := mix64(uint64(n))
		if !found || maxV < bestMax || (maxV == bestMax && tie < bestTie) {
			p.pick, p.cand = p.cand, p.pick
			found = true
			bestMax = maxV
			bestTie = tie
		}
	}
	if !found {
		return nil
	}
	return p.pick
}

var _ sim.FixpointPlacer = (*PAL)(nil)
