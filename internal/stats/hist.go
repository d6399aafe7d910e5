package stats

import "fmt"

// StreamingHist is a fixed-bin streaming histogram: constant memory, one
// Observe per sample, no retained sample slice. The metrics subsystem
// uses it to archive JCT and wait distributions (the raw material of the
// paper's CDF figures) at a size independent of trace length; consumers
// read distribution shape through Quantile and CDF.
//
// Bins are equal-width over [Lo, Hi]; samples outside the range are
// clamped into the edge bins (the convention Histogram uses), so Count
// always equals the number of observations. The exact minimum and
// maximum are tracked separately, which pins the distribution's support
// even when the tails clamp.
type StreamingHist struct {
	Lo, Hi float64 // bin range; width = (Hi-Lo)/len(Counts)
	Counts []int64 // per-bin sample counts
	N      int64   // total observations
	// Min/Max are the exact extremes observed (valid when N > 0).
	Min, Max float64
}

// NewStreamingHist returns an empty histogram with nbins equal-width bins
// over [lo, hi]. It panics on a non-positive bin count or an empty range:
// histogram shape is configuration, not data, so a bad shape is a
// programming error.
func NewStreamingHist(lo, hi float64, nbins int) *StreamingHist {
	if nbins <= 0 {
		panic(fmt.Sprintf("stats: StreamingHist with %d bins", nbins))
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: StreamingHist range [%g, %g]", lo, hi))
	}
	return &StreamingHist{Lo: lo, Hi: hi, Counts: make([]int64, nbins)}
}

// Observe adds one sample.
func (h *StreamingHist) Observe(x float64) {
	idx := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	if h.N == 0 || x < h.Min {
		h.Min = x
	}
	if h.N == 0 || x > h.Max {
		h.Max = x
	}
	h.N++
}

// binWidth returns the width of one bin.
func (h *StreamingHist) binWidth() float64 {
	return (h.Hi - h.Lo) / float64(len(h.Counts))
}

// Quantile estimates the p-th percentile (p in [0, 100]) by locating the
// bin where the cumulative count crosses the target rank and
// interpolating linearly inside it (samples are assumed uniform within a
// bin). The estimate is clamped to the exact observed [Min, Max], so the
// edges never over-report beyond the data. Returns 0 for an empty
// histogram.
func (h *StreamingHist) Quantile(p float64) float64 {
	if h.N == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min
	}
	if p >= 100 {
		return h.Max
	}
	target := float64(p / 100 * float64(h.N))
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			frac := (target - cum) / float64(c)
			v := h.Lo + float64((float64(i)+frac)*h.binWidth())
			if v < h.Min {
				v = h.Min
			}
			if v > h.Max {
				v = h.Max
			}
			return v
		}
		cum = next
	}
	return h.Max
}

// CDF returns the histogram's cumulative distribution as one point per
// non-empty bin, evaluated at the bin's upper edge (the fraction of
// samples at or below it). This is the binned counterpart of stats.CDF
// for use when the raw samples were not retained.
func (h *StreamingHist) CDF() []CDFPoint {
	if h.N == 0 {
		return nil
	}
	var out []CDFPoint
	var cum int64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, CDFPoint{
			Value:    h.Lo + float64(float64(i+1)*h.binWidth()),
			Fraction: float64(cum) / float64(h.N),
		})
	}
	return out
}

// Mean returns the histogram's estimated mean (bin midpoints weighted by
// counts), or 0 when empty.
func (h *StreamingHist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	w := h.binWidth()
	var s float64
	for i, c := range h.Counts {
		if c != 0 {
			s += float64(float64(c) * (h.Lo + float64((float64(i)+0.5)*w)))
		}
	}
	return s / float64(h.N)
}
