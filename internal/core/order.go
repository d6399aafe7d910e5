package core

import (
	"iter"
	"math/bits"
	"slices"
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
	// byClass[c] lists every GPU ascending by Score(c, g).
	byClass [][]cluster.GPUID
	// score[c][g] is Score(c, g), read by the filtered walks without an
	// interface call per GPU.
	score [][]float64
	// words is the length of one class's availability bitset (see
	// reservation), and bit[g*numClasses+c] is GPU g's bit in class c's:
	// bit c*words*64 + i of the classes' bitsets laid end to end, where
	// i is g's position in byClass[c]. One GPU's bits sit side by side,
	// so a hold or unhold touches one short run of the table.
	words int
	bit   []uint32
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
		byClass:     make([][]cluster.GPUID, numClasses),
		score:       make([][]float64, numClasses),
		words:       (n + 63) / 64,
		bit:         make([]uint32, n*numClasses),
		nodeByClass: make([][][]cluster.GPUID, numClasses),
	}
	tie := make([]uint64, n)
	for g := range tie {
		tie[g] = mix64(uint64(g))
	}
	less := func(class vprof.Class) func(a, b cluster.GPUID) bool {
		score := o.score[class]
		return func(a, b cluster.GPUID) bool {
			sa, sb := score[a], score[b]
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
		score := make([]float64, n)
		for g := range score {
			score[g] = scorer.Score(class, g)
		}
		o.score[c] = score
		cmp := less(class)
		all := make([]cluster.GPUID, n)
		for g := range all {
			all[g] = cluster.GPUID(g)
		}
		sort.Slice(all, func(a, b int) bool { return cmp(all[a], all[b]) })
		o.byClass[c] = all
		for i, g := range all {
			o.bit[int(g)*numClasses+c] = uint32(c*o.words*64 + i)
		}

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

// reservation is a placement round's free set as the hysteresis loop
// sees it: the cluster's free GPUs minus those the round holds for its
// jobs. One generation stamp per GPU answers availability by GPU ID —
// start stamps the GPUs the cluster has busy, hold stamps a job's GPUs,
// unhold clears them — so the loop reserves without writing the
// cluster, and per-node counts net of the holds answer FreeOnNode. The
// embedded View answers the topology questions; IsFree, FreeOnNode and
// NumFree are the round's.
//
// The score-order walks read one availability bitset per class, indexed
// by score rank: bit i of class c's bitset is set when byClass[c][i] is
// available. hold and unhold clear or set one bit per class for each
// GPU, and a walk visits only the set bits, in rank order, with
// bits.TrailingZeros64 — so a pick costs O(words + demand) however many
// of the best GPUs are busy or held.
type reservation struct {
	cluster.View
	order *scoreOrder
	stamp []uint32 // stamp[g] == gen: GPU g is busy or held this round
	gen   uint32
	free  []int // free[n]: node n's available GPUs
	nfree int
	// avail holds the classes' bitsets end to end: class c's is
	// avail[c*words : (c+1)*words], with words = order.words.
	avail []uint64
}

// start begins a round over the cluster's current free state and the
// score orders.
func (r *reservation) start(v cluster.View, o *scoreOrder) {
	r.View, r.order = v, o
	if len(r.stamp) != v.Size() {
		r.stamp = make([]uint32, v.Size())
		r.gen = 0
	}
	if r.gen++; r.gen == 0 {
		// The generation wrapped: clear the stamps so none aliases it.
		clear(r.stamp)
		r.gen = 1
	}
	// Every GPU starts available; the busy ones are cleared below.
	r.avail = slices.Grow(r.avail[:0], len(o.byClass)*o.words)[:len(o.byClass)*o.words]
	for c := range o.byClass {
		set := r.avail[c*o.words : (c+1)*o.words]
		for w := range set {
			set[w] = ^uint64(0)
		}
		if tail := v.Size() % 64; tail != 0 {
			set[len(set)-1] = 1<<tail - 1
		}
	}
	per := v.GPUsPerNode()
	r.free = slices.Grow(r.free[:0], v.NumNodes())[:v.NumNodes()]
	for n := range r.free {
		f := v.FreeOnNode(cluster.NodeID(n))
		r.free[n] = f
		if f == per {
			continue
		}
		for g := cluster.GPUID(n * per); g < cluster.GPUID((n+1)*per); g++ {
			if !v.IsFree(g) {
				r.stamp[g] = r.gen
				r.clearAvail(g)
			}
		}
	}
	r.nfree = v.NumFree()
}

// bitsOf returns GPU g's bit in each class's availability bitset.
func (r *reservation) bitsOf(g cluster.GPUID) []uint32 {
	k := len(r.order.byClass)
	return r.order.bit[int(g)*k : int(g)*k+k]
}

// clearAvail clears GPU g's bit in every class's bitset.
func (r *reservation) clearAvail(g cluster.GPUID) {
	for _, b := range r.bitsOf(g) {
		r.avail[b>>6] &^= 1 << (b & 63)
	}
}

// setAvail sets GPU g's bit in every class's bitset.
func (r *reservation) setAvail(g cluster.GPUID) {
	for _, b := range r.bitsOf(g) {
		r.avail[b>>6] |= 1 << (b & 63)
	}
}

// IsFree reports whether GPU g is available to the round's next pick.
func (r *reservation) IsFree(g cluster.GPUID) bool { return r.stamp[g] != r.gen }

// FreeOnNode returns node n's available GPUs.
func (r *reservation) FreeOnNode(n cluster.NodeID) int { return r.free[n] }

// NumFree returns the round's available GPUs.
func (r *reservation) NumFree() int { return r.nfree }

// hold takes available GPUs out of the round's free set.
func (r *reservation) hold(gpus []cluster.GPUID) {
	for _, g := range gpus {
		r.stamp[g] = r.gen
		r.free[r.NodeOf(g)]--
		r.clearAvail(g)
	}
	r.nfree -= len(gpus)
}

// unhold returns held GPUs to the round's free set.
func (r *reservation) unhold(gpus []cluster.GPUID) {
	for _, g := range gpus {
		r.stamp[g] = 0 // no round's generation is 0
		r.free[r.NodeOf(g)]++
		r.setAvail(g)
	}
	r.nfree += len(gpus)
}

// available yields class's available GPUs in score order: the set bits
// of its availability bitset, lowest rank first.
func (r *reservation) available(class vprof.Class) iter.Seq[cluster.GPUID] {
	return func(yield func(cluster.GPUID) bool) {
		order, w := r.order.byClass[class], r.order.words
		for i, word := range r.avail[int(class)*w : (int(class)+1)*w] {
			for ; word != 0; word &= word - 1 {
				if !yield(order[i<<6|bits.TrailingZeros64(word)]) {
					return
				}
			}
		}
	}
}

// takeBest writes into dst[:0] the first demand available GPUs in class
// order, i.e. the available GPUs with the lowest PM scores (Algorithm
// 1's selection). It returns the buffer, grown as needed so the caller
// can keep it for the next pick, and whether demand GPUs were found.
func (r *reservation) takeBest(dst []cluster.GPUID, class vprof.Class, demand int) ([]cluster.GPUID, bool) {
	out := dst[:0]
	for g := range r.available(class) {
		out = append(out, g)
		if len(out) == demand {
			return out, true
		}
	}
	return out, false
}

// takeBestUnder is takeBest restricted to GPUs with score <= v. The class
// order is ascending by score, so the walk stops at the first available
// GPU over v.
func (r *reservation) takeBestUnder(dst []cluster.GPUID, class vprof.Class, demand int, v float64) ([]cluster.GPUID, bool) {
	out := dst[:0]
	score := r.order.score[class]
	for g := range r.available(class) {
		if score[g] > v {
			break
		}
		out = append(out, g)
		if len(out) == demand {
			return out, true
		}
	}
	return out, false
}

// takeNodeUnder writes into dst[:0] the demand lowest-score available
// GPUs on the node with score <= v. Like takeBest it returns the buffer
// and whether the node could supply them; maxV is the allocation's max
// score.
func (r *reservation) takeNodeUnder(dst []cluster.GPUID, class vprof.Class, node, demand int, v float64) (out []cluster.GPUID, maxV float64, ok bool) {
	out = dst[:0]
	score := r.order.score[class]
	for _, g := range r.order.nodeByClass[class][node] {
		s := score[g]
		if s > v {
			break
		}
		if !r.IsFree(g) {
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
