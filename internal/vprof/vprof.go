// Package vprof models GPU performance-variability profiles: the per-GPU,
// per-application-class PM scores that PM-First and PAL consume.
//
// A PM score is an application iteration time on a particular GPU
// normalized to the median GPU of the cluster (§III-B): a score of 1.5
// means the job runs 50% slower on that GPU than on the median GPU, so
// lower is better and the median GPU scores exactly 1.0.
//
// The paper measures these profiles on TACC's Longhorn and Frontera
// clusters with nsight compute. We cannot run on TACC hardware, so this
// package provides synthetic generators (generate.go) whose distributions
// are fitted to the statistics the paper reports, plus the K-Means binning
// pipeline (§III-B) that turns raw per-GPU scores into a small set of
// PM-score bins.
package vprof

import (
	"fmt"

	"repro/internal/kmeans"
	"repro/internal/stats"
)

// Class identifies an application variability class. The paper's running
// example uses three classes ordered by sensitivity to variability:
// Class A (compute-intensive, most sensitive), Class B, Class C
// (memory-bound, least sensitive). The type supports an arbitrary number
// of classes; class 0 is always the most variability-sensitive.
type Class int

// The three classes of the paper's running example.
const (
	ClassA Class = iota // compute-intensive, most variability-sensitive
	ClassB              // intermediate (e.g. language models)
	ClassC              // memory-bound, least variability-sensitive
)

// NumClasses is the number of classes in the paper's running example.
const NumClasses = 3

// String returns the paper's letter name for the class ("A", "B", ...).
func (c Class) String() string {
	if c >= 0 && c < 26 {
		return string(rune('A' + c))
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Profile holds raw per-GPU PM scores for each class on one cluster.
// scores[class][gpu] is the normalized iteration time of a class
// representative app on that GPU. Scores are normalized so that the median
// GPU of each class scores 1.0.
type Profile struct {
	name    string
	classes int
	scores  [][]float64 // [class][gpu]
}

// NewProfile builds a profile from raw (not necessarily normalized)
// per-GPU measurements, one slice per class, normalizing each class to its
// median. All classes must cover the same number of GPUs.
func NewProfile(name string, perClass [][]float64) (*Profile, error) {
	if len(perClass) == 0 {
		return nil, fmt.Errorf("vprof: profile %q has no classes", name)
	}
	n := len(perClass[0])
	if n == 0 {
		return nil, fmt.Errorf("vprof: profile %q has no GPUs", name)
	}
	p := &Profile{name: name, classes: len(perClass), scores: make([][]float64, len(perClass))}
	for c, raw := range perClass {
		if len(raw) != n {
			return nil, fmt.Errorf("vprof: profile %q class %d has %d GPUs, want %d",
				name, c, len(raw), n)
		}
		med := stats.Median(raw)
		if med <= 0 {
			return nil, fmt.Errorf("vprof: profile %q class %d has non-positive median", name, c)
		}
		norm := make([]float64, n)
		for g, v := range raw {
			norm[g] = v / med
		}
		p.scores[c] = norm
	}
	return p, nil
}

// Name returns the profile's descriptive name (e.g. "longhorn").
func (p *Profile) Name() string { return p.name }

// NumGPUs returns the number of GPUs covered by the profile.
func (p *Profile) NumGPUs() int { return len(p.scores[0]) }

// NumClasses returns the number of application classes profiled.
func (p *Profile) NumClasses() int { return p.classes }

// Score returns the exact PM score of GPU g for class c.
func (p *Profile) Score(c Class, g int) float64 { return p.scores[c][g] }

// ClassScores returns a copy of the per-GPU scores for class c.
func (p *Profile) ClassScores(c Class) []float64 {
	return append([]float64(nil), p.scores[c]...)
}

// Variability returns the paper's headline per-class variability metric:
// the geometric mean of normalized scores' deviation, reported as
// geomean(score) - 1 over GPUs slower than the median. (The paper quotes
// "22% geomean variability" for ResNet-50-like apps and ~1% for
// PageRank-like apps; this definition reproduces those magnitudes on the
// synthetic profiles.)
func (p *Profile) Variability(c Class) float64 {
	slow := make([]float64, 0, len(p.scores[c]))
	for _, v := range p.scores[c] {
		if v >= 1.0 {
			slow = append(slow, v)
		}
	}
	if len(slow) == 0 {
		return 0
	}
	return stats.GeoMean(slow) - 1.0
}

// MaxScore returns the worst (largest) score for class c.
func (p *Profile) MaxScore(c Class) float64 {
	return stats.Max(p.scores[c])
}

// Subsample draws n GPU scores per class without repetition, mimicking the
// paper's methodology for simulating an N-GPU cluster from a measured
// profile ("we discretely, randomly sample this profiling data without
// repetition"). perm must be a permutation of [0, NumGPUs) of length >= n
// (callers obtain it from their experiment RNG so sampling stays
// deterministic). The resulting profile is re-normalized to its own
// median, exactly as a fresh measurement of the subcluster would be.
func (p *Profile) Subsample(name string, perm []int, n int) (*Profile, error) {
	if n > len(perm) || n > p.NumGPUs() {
		return nil, fmt.Errorf("vprof: cannot subsample %d GPUs from %d", n, p.NumGPUs())
	}
	perClass := make([][]float64, p.classes)
	for c := range perClass {
		raw := make([]float64, n)
		for i := 0; i < n; i++ {
			raw[i] = p.scores[c][perm[i]]
		}
		perClass[c] = raw
	}
	return NewProfile(name, perClass)
}

// Binned is a profile reduced to K-Means bins per class (§III-B): each
// GPU maps to a bin whose centroid score stands in for the GPU's exact
// score. This is what the placement policies consult at scheduling time;
// binning bounds the policies' working set on large clusters.
type Binned struct {
	profile *Profile
	bins    []*kmeans.Binned // per class
}

// BinProfile runs the silhouette-selected K-Means binning on every class
// of the profile.
func BinProfile(p *Profile) *Binned {
	b := &Binned{profile: p, bins: make([]*kmeans.Binned, p.classes)}
	for c := 0; c < p.classes; c++ {
		b.bins[c] = kmeans.Bin(p.scores[c])
	}
	return b
}

// BinProfileK bins every class with a fixed K instead of the silhouette
// selection (no outlier separation either: all values go through plain
// K-Means). Used by the K-sweep ablation: very small K loses the
// fine-grained variability information, very large K overestimates its
// impact (§III-B).
func BinProfileK(p *Profile, k int) *Binned {
	b := &Binned{profile: p, bins: make([]*kmeans.Binned, p.classes)}
	for c := 0; c < p.classes; c++ {
		res := kmeans.Cluster1D(p.scores[c], k)
		cents := kmeans.Centroids1D(res)
		binOf := append([]int(nil), res.Assign...)
		b.bins[c] = &kmeans.Binned{Scores: cents, BinOf: binOf}
	}
	return b
}

// Profile returns the underlying raw profile.
func (b *Binned) Profile() *Profile { return b.profile }

// Score returns the binned PM score of GPU g for class c (the centroid of
// g's bin, or g's exact score if it is a >3σ outlier).
func (b *Binned) Score(c Class, g int) float64 { return b.bins[c].ScoreOf(g) }

// BinOf returns the bin index of GPU g for class c.
func (b *Binned) BinOf(c Class, g int) int { return b.bins[c].BinOf[g] }

// BinScores returns the ascending bin centroid scores for class c. These
// are the V values of the class's L×V matrix columns.
func (b *Binned) BinScores(c Class) []float64 {
	return append([]float64(nil), b.bins[c].Scores...)
}

// NumBins returns the number of bins for class c.
func (b *Binned) NumBins(c Class) int { return b.bins[c].NumBins() }

// NumClasses returns the number of classes.
func (b *Binned) NumClasses() int { return b.profile.classes }

// NumGPUs returns the number of GPUs.
func (b *Binned) NumGPUs() int { return b.profile.NumGPUs() }

// Scorer is the read-only view of PM scores that placement policies
// consume: a score per (class, GPU). Both Profile (exact scores) and
// Binned (centroid scores) implement it, which lets the ablation bench
// compare binned against exact-score scheduling.
type Scorer interface {
	Score(c Class, g int) float64
	NumGPUs() int
	NumClasses() int
}

// BinnedScorer extends Scorer with the per-class bin centroids that PAL's
// L×V matrix columns are built from. *Binned is the production
// implementation; tests provide hand-built fakes.
type BinnedScorer interface {
	Scorer
	BinScores(c Class) []float64
}

var (
	_ Scorer       = (*Profile)(nil)
	_ Scorer       = (*Binned)(nil)
	_ BinnedScorer = (*Binned)(nil)
)
