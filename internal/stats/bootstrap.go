package stats

import (
	"sort"

	"repro/internal/rng"
)

// Bootstrap confidence intervals for the improvement figures the harness
// reports. One simulation yields one number per job; resampling jobs
// with replacement quantifies how much of an "X% improvement" claim is
// luck of the trace. All resampling is seeded, so reported intervals are
// reproducible.

// CI is a two-sided confidence interval.
type CI struct {
	Low, High float64
	// Level is the nominal coverage (e.g. 0.95).
	Level float64
}

// BootstrapImprovementCI resamples paired (base, ours) observations and
// returns the interval of Improvement(mean(base), mean(ours)) — the
// uncertainty of an avg-JCT improvement claim over the jobs of one trace.
// base and ours must have equal length (per-job metrics of the same
// trace under two policies).
func BootstrapImprovementCI(base, ours []float64, resamples int, level float64, seed uint64) CI {
	n := len(base)
	if n == 0 || n != len(ours) || resamples <= 0 {
		return CI{Level: level}
	}
	r := rng.New(seed)
	estimates := make([]float64, resamples)
	for i := range estimates {
		var sb, so float64
		for j := 0; j < n; j++ {
			k := r.Intn(n)
			sb += base[k]
			so += ours[k]
		}
		estimates[i] = Improvement(sb/float64(n), so/float64(n))
	}
	sort.Float64s(estimates)
	alpha := float64((1 - level) / 2)
	return CI{
		Low:   percentileSorted(estimates, alpha*100),
		High:  percentileSorted(estimates, (1-alpha)*100),
		Level: level,
	}
}

// Contains reports whether v lies inside the interval.
func (ci CI) Contains(v float64) bool { return v >= ci.Low && v <= ci.High }
