package core

import (
	"cmp"
	"slices"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vprof"
)

// placeOpts toggles the ablation switches of the two-pass loop.
type placeOpts struct {
	// noClassPriority keeps the scheduling order instead of sorting the
	// prefix by class (the "placement priority off" ablation).
	noClassPriority bool
	// noHysteresis re-places every job fresh each round (the paper's
	// plain Non-Sticky semantics, used by the hysteresis ablation).
	noHysteresis bool
}

// hysteresis is the two-pass allocation loop shared by PM-First and PAL,
// together with the scratch it sorts, holds and returns through. The
// owning placer keeps one across rounds and writes its fresh picks into
// scratch of its own; the loop holds GPUs in its reservation, never in
// the cluster, and copies each winning pick into one arena, so a warm
// round allocates nothing.
//
// Both policies are Non-Sticky so jobs *can* migrate to better GPUs every
// round, but a migration costs a checkpoint/restore, so a rational policy
// only moves a job when the move strictly improves its allocation. The
// first pass tentatively re-reserves every job's previous GPUs (when they
// are still intact), preventing other jobs from stealing them mid-round;
// the second pass walks jobs in placement-priority order, computes the
// fresh optimal allocation, and migrates only if the fresh pick is
// strictly better under the policy's quality metric (max PM score for
// PM-First, LV-product for PAL; lower is better).
//
// A round in which every job keeps its previous GPUs is a fixpoint:
// each job's fresh pick was computed against the complement of the
// other jobs' held GPUs, a set that does not depend on the walk order,
// so the same job set placed again — in any order — keeps them again.
// That is what lets the engine skip such rounds (sim.FixpointPlacer).
type hysteresis struct {
	res     reservation
	ordered []*sim.Job
	next    []int             // orderByClass's per-class cursors
	kept    [][]cluster.GPUID // kept[i] is ordered[i]'s held previous allocation
	arena   []cluster.GPUID   // the round's winning fresh picks, back to back
	out     map[int][]cluster.GPUID
}

// start begins a round over the cluster's free state and the placer's
// score orders, returning the reservation fresh picks must read.
func (h *hysteresis) start(v cluster.View, o *scoreOrder) *reservation {
	h.res.start(v, o)
	return &h.res
}

// place runs the loop over the round begun by start. fresh must return
// a valid allocation given the reservation's current free set; it may
// return placer scratch, valid until its next call, because place
// copies a fresh pick before keeping it. quality evaluates an allocation
// for a job. The returned map and the slices in it are the scratch's
// own: valid until the next call.
func (h *hysteresis) place(
	need []*sim.Job,
	opts placeOpts,
	fresh func(*sim.Job) []cluster.GPUID,
	quality func(*sim.Job, []cluster.GPUID) float64,
) map[int][]cluster.GPUID {
	res := &h.res
	// Placement priority (§III-B): a stable sort by class, class A
	// first, so within a class the scheduling order is kept. The caller
	// already truncated the queue at cluster size, so every job here is
	// scheduled this round — reordering cannot starve anyone.
	if opts.noClassPriority {
		h.ordered = append(h.ordered[:0], need...)
	} else {
		h.orderByClass(need)
	}

	// Pass 1: tentatively hold every job's previous allocation.
	h.kept = slices.Grow(h.kept[:0], len(h.ordered))[:len(h.ordered)]
	demand := 0
	for i, j := range h.ordered {
		demand += j.Spec.Demand
		h.kept[i] = nil
		if opts.noHysteresis {
			continue
		}
		if prev := reusablePrev(res, j); prev != nil {
			res.hold(prev)
			h.kept[i] = prev
		}
	}

	// Pass 2: fresh-vs-previous decision per job, in priority order. The
	// arena has room for every pick, so it never moves under the slices
	// already handed out.
	if h.out == nil {
		h.out = make(map[int][]cluster.GPUID, len(need))
	}
	clear(h.out)
	h.arena = slices.Grow(h.arena[:0], demand)
	for i, j := range h.ordered {
		prev := h.kept[i]
		if prev != nil {
			res.unhold(prev) // expose the job's own GPUs to its fresh pick
		}
		alloc := fresh(j)
		if prev != nil && quality(j, prev) <= quality(j, alloc) {
			alloc = prev
		} else {
			// A winning pick leaves the placer's scratch for the arena.
			start := len(h.arena)
			h.arena = append(h.arena, alloc...)
			alloc = h.arena[start:len(h.arena):len(h.arena)]
		}
		res.hold(alloc)
		h.out[j.Spec.ID] = alloc
	}
	// The holds end with the round: the next start begins a new
	// generation. Drop the job references so the scratch pins no
	// finished jobs.
	clear(h.ordered)
	clear(h.kept)
	return h.out
}

// orderByClass fills h.ordered with need stably grouped by class,
// lowest class first: a counting pass, with one bucket per class value
// between the lowest and highest present. A range wider than the job
// count (a small prefix, or class values from an unvalidated trace)
// takes the equivalent stable sort instead, which is then no dearer and
// keeps the buckets bounded by the prefix length.
func (h *hysteresis) orderByClass(need []*sim.Job) {
	if len(need) == 0 {
		h.ordered = h.ordered[:0]
		return
	}
	lo, hi := need[0].Spec.Class, need[0].Spec.Class
	for _, j := range need[1:] {
		lo, hi = min(lo, j.Spec.Class), max(hi, j.Spec.Class)
	}
	span := int(hi-lo) + 1
	if span == 1 || span > len(need) {
		h.ordered = append(h.ordered[:0], need...)
		if span > 1 {
			slices.SortStableFunc(h.ordered, func(a, b *sim.Job) int {
				return cmp.Compare(a.Spec.Class, b.Spec.Class)
			})
		}
		return
	}
	// next[k] is where the next job of class lo+k goes.
	next := slices.Grow(h.next[:0], span)[:span]
	clear(next)
	for _, j := range need {
		if k := int(j.Spec.Class - lo); k+1 < span {
			next[k+1]++
		}
	}
	for k := 1; k < span; k++ {
		next[k] += next[k-1]
	}
	h.ordered = slices.Grow(h.ordered[:0], len(need))[:len(need)]
	for _, j := range need {
		k := int(j.Spec.Class - lo)
		h.ordered[next[k]] = j
		next[k]++
	}
	h.next = next
}

// reusablePrev returns the job's previous allocation if it is intact and
// entirely available, else nil.
func reusablePrev(r *reservation, j *sim.Job) []cluster.GPUID {
	prev := j.PrevAlloc
	if len(prev) != j.Spec.Demand {
		return nil
	}
	for _, g := range prev {
		if !r.IsFree(g) {
			return nil
		}
	}
	return prev
}

// fixpointStable reports whether a hysteresis placer over scorer may
// declare its fixpoints stable (sim.FixpointPlacer): only with
// hysteresis on, and only over static scores — a versioned scorer can
// change every fresh pick between two otherwise identical rounds.
func fixpointStable(scorer vprof.Scorer, opts placeOpts) bool {
	_, versioned := scorer.(versionedScorer)
	return !opts.noHysteresis && !versioned
}

// maxScore returns the worst PM score in the allocation, reading one
// class's row of the round's score table (scoreOrder.score).
func maxScore(score []float64, gpus []cluster.GPUID) float64 {
	m := 0.0
	for _, g := range gpus {
		if v := score[g]; v > m {
			m = v
		}
	}
	return m
}
