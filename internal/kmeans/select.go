package kmeans

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// SelectionRange is the K sweep the paper uses when choosing the number of
// PM-score bins: K from 2 to 11 (§III-B).
const (
	MinK = 2
	MaxK = 11
)

// Selection is the outcome of the silhouette-based K selection with >3σ
// outlier separation described in §III-B. Inliers and outliers are
// clustered independently; extreme outliers are assigned their own exact
// scores (each outlier value forms its own bin).
type Selection struct {
	K          int     // chosen K for the inlier clustering
	Score      float64 // silhouette score at the chosen K
	Inliers    *Result // clustering of inlier values
	InlierIdx  []int   // indices (into the original data) of inliers
	OutlierIdx []int   // indices of >3σ outliers
	// Sweep records the silhouette score obtained for every K tried, for
	// inspection and the ablation bench.
	Sweep map[int]float64
}

// SplitOutliers partitions values into inliers and >3σ outliers (indices
// into values). The paper removes extreme outliers before computing
// silhouette scores because they otherwise dominate the coefficients.
func SplitOutliers(values []float64) (inliers, outliers []int) {
	mean := stats.Mean(values)
	sd := stats.StdDev(values)
	for i, v := range values {
		if sd > 0 && math.Abs(v-mean) > 3*sd {
			outliers = append(outliers, i)
		} else {
			inliers = append(inliers, i)
		}
	}
	return inliers, outliers
}

// SelectK sweeps K over [MinK, min(MaxK, n-1)] on the >3σ-trimmed values,
// picks the K whose mean silhouette score is closest to +1, and returns
// the resulting clustering together with the outlier indices. If the data
// has fewer than MinK+1 distinct inliers the sweep degenerates to a single
// cluster.
func SelectK(values []float64) Selection {
	inIdx, outIdx := SplitOutliers(values)
	inVals := make([]float64, len(inIdx))
	for i, idx := range inIdx {
		inVals[i] = values[idx]
	}

	sel := Selection{
		InlierIdx:  inIdx,
		OutlierIdx: outIdx,
		Sweep:      make(map[int]float64),
	}

	distinct := countDistinct(inVals)
	maxK := MaxK
	if distinct-1 < maxK {
		maxK = distinct - 1
	}
	if maxK < MinK {
		sel.K = 1
		sel.Inliers = Cluster1D(inVals, 1)
		return sel
	}

	bestK, bestScore := MinK, math.Inf(-1)
	var bestRes *Result
	for k := MinK; k <= maxK; k++ {
		res := Cluster1D(inVals, k)
		score := Silhouette1D(inVals, res)
		sel.Sweep[k] = score
		if score > bestScore {
			bestK, bestScore, bestRes = k, score, res
		}
	}
	if bestRes == nil {
		// No K scored above -Inf: every silhouette was NaN, which values
		// too far apart for their squared distances to stay finite
		// produce. Keep the smallest K rather than no clustering at all,
		// which would leave the inliers without a bin.
		bestRes = Cluster1D(inVals, MinK)
	}
	sel.K = bestK
	sel.Score = bestScore
	sel.Inliers = bestRes
	return sel
}

// countDistinct returns the number of distinct values in vs.
func countDistinct(vs []float64) int {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	n := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			n++
		}
	}
	return n
}

// Binned is the final per-GPU binning the placement policies consume:
// each GPU index maps to a bin, and each bin has a representative score
// (the centroid for inlier bins, the exact value for outlier bins). Bins
// are sorted ascending by score, so bin 0 holds the best GPUs.
type Binned struct {
	Scores []float64 // representative PM score per bin, ascending
	BinOf  []int     // bin index per original value index
}

// Bin runs the full §III-B pipeline on raw per-GPU scores: outlier
// separation, silhouette K selection, clustering, and exact-score bins for
// the outliers. The returned binning covers every input index.
func Bin(values []float64) *Binned {
	sel := SelectK(values)

	type bin struct {
		score float64
		idxs  []int
	}
	var bins []bin

	if sel.Inliers != nil && len(sel.InlierIdx) > 0 {
		cents := Centroids1D(sel.Inliers)
		group := make([][]int, len(cents))
		for i, a := range sel.Inliers.Assign {
			group[a] = append(group[a], sel.InlierIdx[i])
		}
		for c, idxs := range group {
			if len(idxs) == 0 {
				continue
			}
			bins = append(bins, bin{score: cents[c], idxs: idxs})
		}
	}
	// Each distinct outlier value becomes its own bin with its exact score
	// ("these extreme outliers are assigned their own PM-score equal to the
	// GPU's normalized performance").
	outByVal := make(map[float64][]int)
	for _, idx := range sel.OutlierIdx {
		outByVal[values[idx]] = append(outByVal[values[idx]], idx)
	}
	for v, idxs := range outByVal {
		bins = append(bins, bin{score: v, idxs: idxs})
	}

	sort.Slice(bins, func(a, b int) bool { return bins[a].score < bins[b].score })

	out := &Binned{
		Scores: make([]float64, len(bins)),
		BinOf:  make([]int, len(values)),
	}
	for b, bn := range bins {
		out.Scores[b] = bn.score
		for _, idx := range bn.idxs {
			out.BinOf[idx] = b
		}
	}
	return out
}

// ScoreOf returns the binned PM score of value index i.
func (b *Binned) ScoreOf(i int) float64 { return b.Scores[b.BinOf[i]] }

// NumBins returns the number of bins.
func (b *Binned) NumBins() int { return len(b.Scores) }
