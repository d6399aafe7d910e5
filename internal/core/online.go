package core

import (
	"sync"

	"repro/internal/sim"
	"repro/internal/vprof"
)

// OnlineScorer implements the paper's proposed extension (§V-A): dynamic
// online updates to GPU PM scores. It wraps a static binned profile and
// blends in execution feedback observed by the engine, so GPUs whose
// profile has gone stale (the node-0 incident of the testbed run) are
// discovered at run time instead of poisoning placements for the whole
// trace.
//
// Learning signal: the engine reports each running job's per-rank
// normalized step times every round (see sim.Observer). In
// bulk-synchronous training every rank's compute time is logged before
// the gradient exchange, so per-GPU realized PM scores are directly
// observable without extra profiling runs.
//
// The learned estimate is an exponentially weighted moving average with
// factor Alpha; Score returns the EWMA once at least MinSamples
// observations exist, otherwise the static profile's score. BinScores
// stays static: bins define the L×V matrix thresholds, and the paper
// regenerates those offline. OnlineScorer is safe for the engine's
// single-goroutine use and additionally locks so tests may probe it
// concurrently.
type OnlineScorer struct {
	base vprof.BinnedScorer

	// Alpha is the EWMA weight of each new observation (default 0.25).
	Alpha float64
	// MinSamples is how many observations a (class, GPU) pair needs
	// before the learned score can replace the static one (default 2).
	MinSamples int
	// Divergence is the ratio beyond which the learned score overrides
	// the static profile (default 1.5). Small deviations keep the static
	// score: the goal is to catch gross profile staleness (the paper's
	// ~8x node-0 incident), not to chase measurement noise — continuous
	// per-round score drift would defeat the placers' migration
	// hysteresis and churn allocations.
	Divergence float64

	mu      sync.Mutex
	est     [][]float64 // [class][gpu] EWMA estimate
	samples [][]int     // [class][gpu] observation count
	version uint64      // bumped on every update; placers rebuild orders
}

// NewOnlineScorer wraps base with online learning at default parameters.
func NewOnlineScorer(base vprof.BinnedScorer) *OnlineScorer {
	o := &OnlineScorer{
		base:       base,
		Alpha:      0.25,
		MinSamples: 2,
		Divergence: 1.5,
	}
	o.est = make([][]float64, base.NumClasses())
	o.samples = make([][]int, base.NumClasses())
	for c := range o.est {
		o.est[c] = make([]float64, base.NumGPUs())
		o.samples[c] = make([]int, base.NumGPUs())
	}
	return o
}

// Score implements vprof.Scorer: the learned estimate once warmed up AND
// grossly divergent from the profile, else the static profile score.
func (o *OnlineScorer) Score(c vprof.Class, g int) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.effective(c, g)
}

// effective implements Score's policy; callers hold o.mu.
func (o *OnlineScorer) effective(c vprof.Class, g int) float64 {
	static := o.base.Score(c, g)
	if o.samples[c][g] < o.MinSamples {
		return static
	}
	est := o.est[c][g]
	if est > static*o.Divergence || est < static/o.Divergence {
		return est
	}
	return static
}

// NumGPUs implements vprof.Scorer.
func (o *OnlineScorer) NumGPUs() int { return o.base.NumGPUs() }

// NumClasses implements vprof.Scorer.
func (o *OnlineScorer) NumClasses() int { return o.base.NumClasses() }

// BinScores implements vprof.BinnedScorer with the static bins.
func (o *OnlineScorer) BinScores(c vprof.Class) []float64 {
	return o.base.BinScores(c)
}

// ObserveRound implements sim.Observer: fold each rank's realized score
// into the EWMA for its (class, GPU) pair.
func (o *OnlineScorer) ObserveRound(j *sim.Job, perGPU []float64, _ float64) {
	c := j.Spec.Class
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, gid := range j.Alloc {
		if i >= len(perGPU) {
			break
		}
		g := int(gid)
		before := o.effective(c, g)
		if o.samples[c][g] == 0 {
			o.est[c][g] = perGPU[i]
		} else {
			o.est[c][g] = float64((1-o.Alpha)*o.est[c][g]) + float64(o.Alpha*perGPU[i])
		}
		o.samples[c][g]++
		if o.effective(c, g) != before {
			// Only a change in the effective score invalidates the
			// placers' precomputed orders; EWMA noise under the
			// divergence threshold does not.
			o.version++
		}
	}
}

// Version implements the placers' staleness check: it changes whenever a
// learned score changes.
func (o *OnlineScorer) Version() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.version
}

// Samples returns the observation count for a (class, GPU) pair, for
// tests and diagnostics.
func (o *OnlineScorer) Samples(c vprof.Class, g int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.samples[c][g]
}

var (
	_ vprof.BinnedScorer = (*OnlineScorer)(nil)
	_ sim.Observer       = (*OnlineScorer)(nil)
)
