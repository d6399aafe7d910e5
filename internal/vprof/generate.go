package vprof

import (
	"fmt"

	"repro/internal/rng"
)

// This file holds the synthetic profile generators that stand in for the
// paper's measured TACC profiles (Table III, Figs. 6-8). The substitution
// is documented in DESIGN.md: the policies consume only
// normalized-to-median scores, so any distribution matching the reported
// spread and tail shape exercises the same behaviour.
//
// Shape targets taken from the paper:
//   - Class A (ResNet-50): ~13-22% geomean variability, long tail up to
//     2.5-3.5x the median, most GPUs concentrated in 2 clusters near the
//     median (Fig. 5), visible node ("cabinet") correlation (Figs. 6-7).
//   - Class B (BERT): moderate variability, tail to ~1.5x.
//   - Class C (PageRank): ~1% variability, essentially flat.
//   - The 64-GPU Frontera testbed subset (Fig. 8) is tighter for Class A
//     (6% vs 13.3% full-cluster variability).

// ClassShape parameterizes the synthetic score distribution of one class.
type ClassShape struct {
	// Sigma is the lognormal sigma of the bulk population around the
	// median (larger = wider spread).
	Sigma float64
	// NodeModes lists discrete per-node (cabinet) multipliers; each node
	// draws one uniformly. Cooling zones and cabinet placement make real
	// clusters multimodal (Figs. 6-7 band by cabinet; Fig. 5's K-Means
	// finds distinct clusters), and this is what reproduces that
	// structure. Empty means {1.0}.
	NodeModes []float64
	// NodeSigma adds a continuous per-node lognormal factor on top of the
	// mode.
	NodeSigma float64
	// OutlierFrac is the fraction of GPUs drawn from the slow tail.
	OutlierFrac float64
	// OutlierMin and OutlierMax bound the slow-tail multiplier (relative
	// to the median GPU).
	OutlierMin, OutlierMax float64
}

// ClusterShape parameterizes a whole synthetic cluster profile.
type ClusterShape struct {
	Name        string
	GPUsPerNode int
	Classes     []ClassShape // index = Class
}

// LonghornShape mimics TACC Longhorn (V100s), the profile the paper uses
// for its simulations (§IV-C, Fig. 7). Class A shows ~20% variability
// with outliers beyond 3x; Class C is nearly flat.
func LonghornShape() ClusterShape {
	return ClusterShape{
		Name:        "longhorn",
		GPUsPerNode: 4,
		Classes: []ClassShape{
			{Sigma: 0.048, NodeModes: []float64{0.92, 1.0, 1.10}, NodeSigma: 0.028,
				OutlierFrac: 0.065, OutlierMin: 1.6, OutlierMax: 3.5},
			{Sigma: 0.025, NodeModes: []float64{0.98, 1.0, 1.03}, NodeSigma: 0.012,
				OutlierFrac: 0.02, OutlierMin: 1.2, OutlierMax: 1.6},
			{Sigma: 0.006, NodeSigma: 0.003, OutlierFrac: 0, OutlierMin: 1, OutlierMax: 1},
		},
	}
}

// FronteraShape mimics TACC Frontera's Quadro RTX 5000 subsystem (Fig. 6),
// with slightly lower Class-A spread than Longhorn (13.3% reported).
func FronteraShape() ClusterShape {
	return ClusterShape{
		Name:        "frontera",
		GPUsPerNode: 4,
		Classes: []ClassShape{
			{Sigma: 0.035, NodeModes: []float64{0.95, 1.0, 1.06}, NodeSigma: 0.02,
				OutlierFrac: 0.04, OutlierMin: 1.5, OutlierMax: 3.0},
			{Sigma: 0.02, NodeModes: []float64{0.99, 1.0, 1.02}, NodeSigma: 0.01,
				OutlierFrac: 0.015, OutlierMin: 1.2, OutlierMax: 1.5},
			{Sigma: 0.006, NodeSigma: 0.003, OutlierFrac: 0, OutlierMin: 1, OutlierMax: 1},
		},
	}
}

// TestbedShape mimics the 64-GPU Frontera testbed subset of Fig. 8, whose
// Class-A variability (6%) is about half the full cluster's.
func TestbedShape() ClusterShape {
	return ClusterShape{
		Name:        "testbed",
		GPUsPerNode: 4,
		Classes: []ClassShape{
			{Sigma: 0.03, NodeModes: []float64{0.96, 1.0, 1.07}, NodeSigma: 0.02,
				OutlierFrac: 0.06, OutlierMin: 1.5, OutlierMax: 2.3},
			{Sigma: 0.018, NodeModes: []float64{0.99, 1.0, 1.02}, NodeSigma: 0.008,
				OutlierFrac: 0.02, OutlierMin: 1.15, OutlierMax: 1.4},
			{Sigma: 0.005, NodeSigma: 0.002, OutlierFrac: 0, OutlierMin: 1, OutlierMax: 1},
		},
	}
}

// Generate synthesizes a profile of numGPUs GPUs with the given shape.
// The same (shape, numGPUs, seed) always yields the same profile.
func Generate(shape ClusterShape, numGPUs int, seed uint64) *Profile {
	if numGPUs <= 0 {
		panic(fmt.Sprintf("vprof: Generate with numGPUs=%d", numGPUs))
	}
	gpn := shape.GPUsPerNode
	if gpn <= 0 {
		gpn = 4
	}
	numNodes := (numGPUs + gpn - 1) / gpn
	root := rng.New(seed)

	perClass := make([][]float64, len(shape.Classes))
	for c, cs := range shape.Classes {
		r := root.Split(uint64(c))
		// Per-node cabinet factors, shared across classes proportionally:
		// a slow cabinet is slow for every class, scaled by the class's
		// own NodeSigma. Using a class-split stream keeps classes
		// independent while staying deterministic.
		nodeFactor := make([]float64, numNodes)
		for n := range nodeFactor {
			mode := 1.0
			if len(cs.NodeModes) > 0 {
				mode = cs.NodeModes[r.Intn(len(cs.NodeModes))]
			}
			nodeFactor[n] = mode * r.LogNormal(0, cs.NodeSigma)
		}
		raw := make([]float64, numGPUs)
		for g := 0; g < numGPUs; g++ {
			base := r.LogNormal(0, cs.Sigma) * nodeFactor[g/gpn]
			if cs.OutlierFrac > 0 && r.Float64() < cs.OutlierFrac {
				// Slow-tail GPU: multiplier uniform in [OutlierMin, OutlierMax].
				base *= cs.OutlierMin + float64(r.Float64()*(cs.OutlierMax-cs.OutlierMin))
			}
			raw[g] = base
		}
		perClass[c] = raw
	}

	p, err := NewProfile(shape.Name, perClass)
	if err != nil {
		// Generation parameters are internal constants; failure is a bug.
		panic(err)
	}
	return p
}

// GenerateLonghorn returns a Longhorn-style profile with numGPUs GPUs.
func GenerateLonghorn(numGPUs int, seed uint64) *Profile {
	return Generate(LonghornShape(), numGPUs, seed)
}

// GenerateFrontera returns a Frontera-style profile with numGPUs GPUs.
func GenerateFrontera(numGPUs int, seed uint64) *Profile {
	return Generate(FronteraShape(), numGPUs, seed)
}

// GenerateTestbed returns a profile shaped like the 64-GPU Frontera
// testbed subset of Fig. 8.
func GenerateTestbed(seed uint64) *Profile {
	return Generate(TestbedShape(), 64, seed)
}

// PerturbStaleGPUs returns a copy of p in which the listed GPUs'
// scores for class c are divided by factor (GPUs outside the profile
// are ignored), re-normalized to its median. It models the stale
// node-0 Class-A profile the paper discovered in its testbed run
// (§V-A: profiled scores ~8x lower than the penalties jobs actually
// experienced): the engine places by one profile and charges execution
// by the other, so a factor below 1 turns a profile into the truth
// behind it and a factor above 1 into a stale view of it. A
// non-positive factor, or one that leaves scores no profile can hold,
// is an error.
func PerturbStaleGPUs(p *Profile, c Class, gpus []int, factor float64) (*Profile, error) {
	if !(factor > 0) {
		return nil, fmt.Errorf("vprof: stale factor %g, want > 0", factor)
	}
	perClass := make([][]float64, p.classes)
	for cc := 0; cc < p.classes; cc++ {
		perClass[cc] = p.ClassScores(Class(cc))
	}
	for _, g := range gpus {
		if g >= 0 && g < p.NumGPUs() {
			perClass[int(c)][g] /= factor
		}
	}
	return NewProfile(p.name+"-stale", perClass)
}
