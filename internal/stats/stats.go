// Package stats provides the descriptive statistics used by the PAL
// reproduction: means, geometric means, percentiles, CDFs, histograms and
// boxplot summaries. The experiment harness reports the same aggregate
// metrics the paper does (average JCT, 99th-percentile JCT, geomean
// improvements, makespan, utilization), so these helpers are deliberately
// explicit about their definitions.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values are skipped (they would otherwise poison the log).
// Returns 0 if no positive values are present.
func GeoMean(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. It copies and sorts its input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile on an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	// Each explicit float64 rounds a product, so no architecture fuses
	// it into a multiply-add: percentiles must not depend on GOARCH.
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary bundles the descriptive statistics the harness reports for a
// sample (e.g. the per-job JCTs of one simulation).
type Summary struct {
	N      int
	Mean   float64
	Geo    float64
	Std    float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:      len(sorted),
		Mean:   Mean(sorted),
		Geo:    GeoMean(sorted),
		Std:    StdDev(sorted),
		Min:    sorted[0],
		P25:    percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		P75:    percentileSorted(sorted, 75),
		P99:    percentileSorted(sorted, 99),
		Max:    sorted[len(sorted)-1],
	}
}

// String renders the summary on one line, suitable for harness output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g geo=%.4g p50=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.Geo, s.Median, s.P99, s.Max)
}

// Boxplot holds the five-number summary plus whisker bounds used for the
// paper's boxplot figures (Figs. 10 and 18). Whiskers follow the usual
// 1.5×IQR convention, clamped to the data range.
type Boxplot struct {
	Min, Q1, Median, Q3, Max float64
	WhiskerLow, WhiskerHigh  float64
	OutlierCount             int
}

// BoxplotOf computes a Boxplot of xs.
func BoxplotOf(xs []float64) Boxplot {
	if len(xs) == 0 {
		return Boxplot{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	b := Boxplot{
		Min:    sorted[0],
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
	}
	iqr := b.Q3 - b.Q1
	loBound := b.Q1 - float64(1.5*iqr)
	hiBound := b.Q3 + float64(1.5*iqr)
	b.WhiskerLow = b.Max
	b.WhiskerHigh = b.Min
	for _, x := range sorted {
		if x >= loBound && x < b.WhiskerLow {
			b.WhiskerLow = x
		}
		if x <= hiBound && x > b.WhiskerHigh {
			b.WhiskerHigh = x
		}
		if x < loBound || x > hiBound {
			b.OutlierCount++
		}
	}
	return b
}

// CDFPoint is one step of an empirical cumulative distribution function.
type CDFPoint struct {
	Value    float64 // sample value
	Fraction float64 // fraction of samples <= Value
}

// CDF returns the empirical CDF of xs as a sorted list of steps, one per
// distinct value. Used to reproduce the paper's JCT CDF (Fig. 9).
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]CDFPoint, 0, len(sorted))
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		// Collapse runs of equal values into a single step.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		out = append(out, CDFPoint{Value: sorted[i], Fraction: float64(i+1) / n})
	}
	return out
}

// CDFAt returns the fraction of samples in the (sorted-step) CDF that are
// <= v; 0 if v precedes every step.
func CDFAt(cdf []CDFPoint, v float64) float64 {
	frac := 0.0
	for _, p := range cdf {
		if p.Value > v {
			break
		}
		frac = p.Fraction
	}
	return frac
}

// Histogram counts samples into nbins equal-width bins spanning [lo, hi].
// Samples outside the range are clamped into the first/last bin. Returns
// the bin edges (nbins+1 values) and counts (nbins values).
func Histogram(xs []float64, lo, hi float64, nbins int) (edges []float64, counts []int) {
	if nbins <= 0 || hi <= lo {
		return nil, nil
	}
	edges = make([]float64, nbins+1)
	width := (hi - lo) / float64(nbins)
	for i := range edges {
		edges[i] = lo + float64(float64(i)*width)
	}
	counts = make([]int, nbins)
	for _, x := range xs {
		idx := int((x - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= nbins {
			idx = nbins - 1
		}
		counts[idx]++
	}
	return edges, counts
}

// Improvement returns the fractional improvement of "ours" over "base" for
// a lower-is-better metric: (base - ours) / base. A positive value means
// ours is better. This is the convention the paper uses when reporting
// "PAL improves average JCT by X% over Tiresias".
func Improvement(base, ours float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - ours) / base
}
