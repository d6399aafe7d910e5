// Package kmeans implements the K-Means clustering the paper uses in two
// places: 1-D clustering of per-GPU PM scores into variability bins
// (§III-B, Fig. 5) and 2-D clustering of applications in the
// DRAMUtil × PeakFUUtil space (§III-A, Fig. 3). It also implements the
// silhouette-score K selection with >3σ outlier separation described in
// §III-B.
//
// The implementation is deterministic: initial centroids are chosen by a
// k-means++-style farthest-point heuristic seeded from the data itself, so
// the same input always yields the same clustering with no RNG required.
package kmeans

import (
	"math"
	"sort"
)

// maxIterations bounds Lloyd's algorithm. K-Means on the small inputs used
// here (hundreds of points) converges in a handful of iterations; the cap
// exists only as a safety net.
const maxIterations = 200

// Result holds the outcome of a clustering run.
type Result struct {
	// Centroids holds K centroid positions. For 1-D clustering they are
	// returned sorted ascending so that bin 0 is the best-performing
	// (lowest PM-score) bin.
	Centroids [][]float64
	// Assign maps each input point index to its centroid index.
	Assign []int
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
}

// K returns the number of clusters in the result.
func (r *Result) K() int { return len(r.Centroids) }

// Sizes returns the number of points assigned to each cluster.
func (r *Result) Sizes() []int {
	sizes := make([]int, len(r.Centroids))
	for _, a := range r.Assign {
		sizes[a]++
	}
	return sizes
}

// dist2 returns the squared Euclidean distance between points a and b.
func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// Cluster runs K-Means (Lloyd's algorithm) on points with k clusters.
// Points must be non-empty and share a dimensionality; k must satisfy
// 1 <= k <= len(points). Initialization is a deterministic farthest-point
// sweep (the first centroid is the point closest to the data mean), which
// makes results reproducible without a seed.
func Cluster(points [][]float64, k int) *Result {
	n := len(points)
	if n == 0 {
		return &Result{}
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	dim := len(points[0])

	centroids := initFarthestPoint(points, k)
	assign := make([]int, n)
	counts := make([]int, k)
	sums := make([][]float64, k)
	for i := range sums {
		sums[i] = make([]float64, dim)
	}

	for iter := 0; iter < maxIterations; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := dist2(p, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		for c := range centroids {
			counts[c] = 0
			for d := 0; d < dim; d++ {
				sums[c][d] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				sums[c][d] += p[d]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// current centroid assignment, keeping K clusters alive.
				centroids[c] = farthestPoint(points, centroids, assign)
				continue
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}

	res := &Result{Centroids: centroids, Assign: assign}
	for i, p := range points {
		res.Inertia += dist2(p, centroids[assign[i]])
	}
	return res
}

// initFarthestPoint picks k deterministic starting centroids: the point
// nearest the global mean, then repeatedly the point farthest from all
// chosen centroids.
func initFarthestPoint(points [][]float64, k int) [][]float64 {
	n := len(points)
	dim := len(points[0])
	mean := make([]float64, dim)
	for _, p := range points {
		for d := 0; d < dim; d++ {
			mean[d] += p[d]
		}
	}
	for d := 0; d < dim; d++ {
		mean[d] /= float64(n)
	}
	first, firstD := 0, math.Inf(1)
	for i, p := range points {
		if d := dist2(p, mean); d < firstD {
			first, firstD = i, d
		}
	}
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, clone(points[first]))
	minD := make([]float64, n)
	for i, p := range points {
		minD[i] = dist2(p, centroids[0])
	}
	for len(centroids) < k {
		far, farD := 0, -1.0
		for i := range points {
			if minD[i] > farD {
				far, farD = i, minD[i]
			}
		}
		c := clone(points[far])
		centroids = append(centroids, c)
		for i, p := range points {
			if d := dist2(p, c); d < minD[i] {
				minD[i] = d
			}
		}
	}
	return centroids
}

// farthestPoint returns a copy of the point with the greatest distance to
// its assigned centroid (used to revive empty clusters).
func farthestPoint(points [][]float64, centroids [][]float64, assign []int) []float64 {
	far, farD := 0, -1.0
	for i, p := range points {
		if d := dist2(p, centroids[assign[i]]); d > farD {
			far, farD = i, d
		}
	}
	return clone(points[far])
}

func clone(p []float64) []float64 { return append([]float64(nil), p...) }

// Cluster1D clusters scalar values into k bins and returns centroids
// sorted ascending with assignments renumbered to match. This is the form
// the PM-score binning consumes: bin 0 is the fastest (lowest normalized
// runtime) group of GPUs.
func Cluster1D(values []float64, k int) *Result {
	points := make([][]float64, len(values))
	for i, v := range values {
		points[i] = []float64{v}
	}
	res := Cluster(points, k)
	sortResult1D(res)
	return res
}

// sortResult1D reorders centroids ascending and renumbers assignments.
func sortResult1D(res *Result) {
	k := len(res.Centroids)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return res.Centroids[order[a]][0] < res.Centroids[order[b]][0]
	})
	remap := make([]int, k)
	newCentroids := make([][]float64, k)
	for newIdx, oldIdx := range order {
		remap[oldIdx] = newIdx
		newCentroids[newIdx] = res.Centroids[oldIdx]
	}
	res.Centroids = newCentroids
	for i, a := range res.Assign {
		res.Assign[i] = remap[a]
	}
}

// Centroids1D extracts the scalar centroid values of a 1-D clustering.
func Centroids1D(res *Result) []float64 {
	out := make([]float64, len(res.Centroids))
	for i, c := range res.Centroids {
		out[i] = c[0]
	}
	return out
}
