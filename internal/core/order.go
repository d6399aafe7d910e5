package core

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/vprof"
)

// scoreOrder precomputes, per class, the cluster's GPUs sorted ascending
// by PM score (ties by GPU ID). PM scores are static for a run — profiles
// are generated at design time (§IV-C) — so both PM-First and PAL can
// allocate by walking these orders and skipping busy GPUs instead of
// re-sorting the free list every round. This is what keeps per-epoch
// placement cost low on large clusters (Fig. 18).
type scoreOrder struct {
	scorer vprof.Scorer
	// byClass[c] lists every GPU ascending by Score(c, g).
	byClass [][]cluster.GPUID
	// nodeByClass[c][n] lists node n's GPUs ascending by Score(c, g).
	nodeByClass [][][]cluster.GPUID
}

// newScoreOrder builds the per-class orders for a cluster of n GPUs laid
// out with gpusPerNode GPUs per node.
//
// Ties between GPUs with identical (binned) scores are broken by a hash
// of the GPU ID rather than the ID itself. All GPUs of a bin are equal as
// far as the policy knows, and an ID-ordered tie-break would concentrate
// allocations on the lowest-numbered nodes — systematically hammering the
// same hardware and, with a stale profile (§V-A), systematically hitting
// the same mis-profiled node. The hash spreads in-bin picks across the
// cluster while staying fully deterministic.
func newScoreOrder(scorer vprof.Scorer, numClasses, n, gpusPerNode int) *scoreOrder {
	o := &scoreOrder{
		scorer:      scorer,
		byClass:     make([][]cluster.GPUID, numClasses),
		nodeByClass: make([][][]cluster.GPUID, numClasses),
	}
	tie := make([]uint64, n)
	for g := range tie {
		tie[g] = mix64(uint64(g))
	}
	less := func(class vprof.Class) func(a, b cluster.GPUID) bool {
		return func(a, b cluster.GPUID) bool {
			sa := scorer.Score(class, int(a))
			sb := scorer.Score(class, int(b))
			if sa != sb {
				return sa < sb
			}
			if tie[a] != tie[b] {
				return tie[a] < tie[b]
			}
			return a < b
		}
	}
	numNodes := n / gpusPerNode
	for c := 0; c < numClasses; c++ {
		class := vprof.Class(c)
		cmp := less(class)
		all := make([]cluster.GPUID, n)
		for g := range all {
			all[g] = cluster.GPUID(g)
		}
		sort.Slice(all, func(a, b int) bool { return cmp(all[a], all[b]) })
		o.byClass[c] = all

		nodes := make([][]cluster.GPUID, numNodes)
		for nIdx := 0; nIdx < numNodes; nIdx++ {
			node := make([]cluster.GPUID, gpusPerNode)
			for i := range node {
				node[i] = cluster.GPUID(nIdx*gpusPerNode + i)
			}
			sort.Slice(node, func(a, b int) bool { return cmp(node[a], node[b]) })
			nodes[nIdx] = node
		}
		o.nodeByClass[c] = nodes
	}
	return o
}

// mix64 is the SplitMix64 finalizer, used as a deterministic tie-break
// hash.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// versionedScorer is implemented by scorers whose scores evolve at run
// time (the online re-profiling extension). Placers that precompute
// score orders rebuild them when the version changes.
type versionedScorer interface {
	Version() uint64
}

// orderCache owns a scoreOrder plus the staleness bookkeeping shared by
// PM-First and PAL.
type orderCache struct {
	order   *scoreOrder
	version uint64
}

// get returns a fresh-enough scoreOrder for the scorer and cluster shape,
// rebuilding if the scorer's version moved (at most once per scheduling
// round in practice).
func (oc *orderCache) get(scorer vprof.Scorer, numClasses, n, gpusPerNode int) *scoreOrder {
	v, dynamic := uint64(0), false
	if vs, ok := scorer.(versionedScorer); ok {
		v, dynamic = vs.Version(), true
	}
	if oc.order == nil || (dynamic && v != oc.version) {
		oc.order = newScoreOrder(scorer, numClasses, n, gpusPerNode)
		oc.version = v
	}
	return oc.order
}

// takeBest writes into dst[:0] the first demand free GPUs in class
// order, i.e. the free GPUs with the lowest PM scores (Algorithm 1's
// selection). It returns the buffer, grown as needed so the caller can
// keep it for the next pick, and whether demand GPUs were found.
func (o *scoreOrder) takeBest(dst []cluster.GPUID, c cluster.View, class vprof.Class, demand int) ([]cluster.GPUID, bool) {
	out := dst[:0]
	for _, g := range o.byClass[class] {
		if !c.IsFree(g) {
			continue
		}
		out = append(out, g)
		if len(out) == demand {
			return out, true
		}
	}
	return out, false
}

// takeBestUnder is takeBest restricted to GPUs with score <= v. The class
// order is ascending by score, so the walk stops at the first GPU over v.
func (o *scoreOrder) takeBestUnder(dst []cluster.GPUID, c cluster.View, class vprof.Class, demand int, v float64) ([]cluster.GPUID, bool) {
	out := dst[:0]
	for _, g := range o.byClass[class] {
		if o.scorer.Score(class, int(g)) > v {
			break
		}
		if !c.IsFree(g) {
			continue
		}
		out = append(out, g)
		if len(out) == demand {
			return out, true
		}
	}
	return out, false
}

// takeNodeUnder writes into dst[:0] the demand lowest-score free GPUs on
// the node with score <= v. Like takeBest it returns the buffer and
// whether the node could supply them; maxV is the allocation's max score.
func (o *scoreOrder) takeNodeUnder(dst []cluster.GPUID, c cluster.View, class vprof.Class, node, demand int, v float64) (out []cluster.GPUID, maxV float64, ok bool) {
	out = dst[:0]
	for _, g := range o.nodeByClass[class][node] {
		s := o.scorer.Score(class, int(g))
		if s > v {
			break
		}
		if !c.IsFree(g) {
			continue
		}
		out = append(out, g)
		maxV = s
		if len(out) == demand {
			return out, maxV, true
		}
	}
	return out, 0, false
}
