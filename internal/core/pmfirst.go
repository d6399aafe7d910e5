package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vprof"
)

// PMFirst is the paper's first placement policy (§III-B, Algorithm 1):
// PM-induced variability gets first-order precedence. Within the
// schedulable prefix handed over by the scheduling policy, jobs are
// re-ordered by class (placement priority: class A first) and each job
// greedily receives the free GPUs with the lowest PM scores for its
// class. PM-First is Non-Sticky so jobs can migrate to better GPUs every
// round.
type PMFirst struct {
	scorer vprof.Scorer
	cache  orderCache // precomputed score orders, rebuilt if scores drift
	hyst   hysteresis
	pick   []cluster.GPUID // a fresh pick, valid until the next one

	// NoClassPriority disables the class-based reordering of the
	// schedulable prefix (ablation: placement priority off). Set before
	// the first PlaceRound.
	NoClassPriority bool
	// NoHysteresis disables previous-allocation reuse, re-placing every
	// job fresh each round (ablation: plain non-sticky).
	NoHysteresis bool
}

// NewPMFirst builds a PM-First placer over the given PM-score view
// (typically a *vprof.Binned; the ablation bench passes the raw
// *vprof.Profile to measure the effect of binning).
func NewPMFirst(scorer vprof.Scorer) *PMFirst {
	return &PMFirst{scorer: scorer}
}

// Name implements sim.Placer.
func (p *PMFirst) Name() string { return "pm-first" }

// Sticky implements sim.Placer: PM-First is non-sticky (§IV-A1).
func (p *PMFirst) Sticky() bool { return false }

// opts returns the two-pass loop's ablation switches.
func (p *PMFirst) opts() placeOpts {
	return placeOpts{noClassPriority: p.NoClassPriority, noHysteresis: p.NoHysteresis}
}

// FixpointStable implements sim.FixpointPlacer: with hysteresis on and
// static scores, a round in which every job kept its GPUs repeats until
// the job set changes.
func (p *PMFirst) FixpointStable() bool { return fixpointStable(p.scorer, p.opts()) }

// PlaceRound implements sim.Placer.
func (p *PMFirst) PlaceRound(c *cluster.Cluster, need []*sim.Job, _ float64) map[int][]cluster.GPUID {
	v := c.View()
	// The precomputed score orders are rebuilt when a dynamic scorer's
	// version moves.
	o := p.cache.get(p.scorer, p.scorer.NumClasses(), v.Size(), v.GPUsPerNode())
	res := p.hyst.start(v, o)
	return p.hyst.place(need, p.opts(),
		func(j *sim.Job) []cluster.GPUID {
			var ok bool
			p.pick, ok = res.takeBest(p.pick[:0], j.Spec.Class, j.Spec.Demand)
			if !ok {
				panic(fmt.Sprintf("core: PM-First cannot place job %d (demand %d, free %d)",
					j.Spec.ID, j.Spec.Demand, res.NumFree()))
			}
			return p.pick
		},
		func(j *sim.Job, gpus []cluster.GPUID) float64 {
			return maxScore(o.score[j.Spec.Class], gpus)
		})
}

var _ sim.FixpointPlacer = (*PMFirst)(nil)
