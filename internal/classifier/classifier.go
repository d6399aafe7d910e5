// Package classifier implements the paper's application classification
// layer (§III-A, Fig. 3): applications are placed in a two-dimensional
// DRAMUtil × PeakFUUtil space computed from kernel-level profiling
// metrics, then grouped into K ordered classes by K-Means. Class A is the
// most compute-intensive (most variability-sensitive) and the last class
// is the most memory-bound (least sensitive).
//
// The paper collects the kernel metrics with nsight compute; here the
// metrics come either from the builtin Figure-3 dataset (apps.go) or from
// the synthetic kernel-profile generator, both of which feed the exact
// formulas of §III-A.
package classifier

import (
	"fmt"
	"sort"

	"repro/internal/kmeans"
	"repro/internal/vprof"
)

// FuncUnit enumerates the GPU compute components whose utilization feeds
// PeakFUUtil: "single precision, double precision, texture, special and
// tensor function units".
type FuncUnit int

// The function units considered by the classifier.
const (
	FUSingle FuncUnit = iota
	FUDouble
	FUTexture
	FUSpecial
	FUTensor
	numFuncUnits
)

// String returns a short name for the function unit.
func (f FuncUnit) String() string {
	switch f {
	case FUSingle:
		return "fp32"
	case FUDouble:
		return "fp64"
	case FUTexture:
		return "tex"
	case FUSpecial:
		return "sfu"
	case FUTensor:
		return "tensor"
	}
	return fmt.Sprintf("fu(%d)", int(f))
}

// Kernel is one profiled kernel type of an application: its aggregate
// runtime share and its utilization of each function unit and of DRAM
// bandwidth, all in nsight compute's [0, 10] range.
type Kernel struct {
	Name    string
	Runtime float64               // total runtime of this kernel type (ms)
	FUUtil  [numFuncUnits]float64 // per-FU utilization, [0,10]
	DRAMBW  float64               // achieved DRAM bandwidth fraction, [0,1]
}

// AppMetrics is the kernel-level profile of one application.
type AppMetrics struct {
	Name    string
	Kernels []Kernel
}

// DRAMUtil computes the application's DRAM utilization per §III-A:
// runtime-weighted mean DRAM bandwidth fraction, scaled to [0,10]
// (DRAMUtil = DRAMBandwidth / DRAMPeakBandwidth * 10, aggregated over
// kernels weighted by runtime).
func (a AppMetrics) DRAMUtil() float64 {
	var num, den float64
	for _, k := range a.Kernels {
		num += float64(k.Runtime * k.DRAMBW * 10)
		den += k.Runtime
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// FUUtil computes the runtime-weighted utilization of one function unit
// per §III-A: sum_T(runtime * util_i) / sum_T(runtime * 10), scaled back
// to the [0,10] reporting range.
func (a AppMetrics) FUUtil(fu FuncUnit) float64 {
	var num, den float64
	for _, k := range a.Kernels {
		num += float64(k.Runtime * k.FUUtil[fu])
		den += float64(k.Runtime * 10)
	}
	if den == 0 {
		return 0
	}
	// num/den is in [0,1]; report in [0,10] like nsight compute.
	return num / den * 10
}

// PeakFUUtil computes max over function units of FUUtil (§III-A).
func (a AppMetrics) PeakFUUtil() float64 {
	best := 0.0
	for fu := FuncUnit(0); fu < numFuncUnits; fu++ {
		if u := a.FUUtil(fu); u > best {
			best = u
		}
	}
	return best
}

// Point returns the application's coordinates in the classification
// space: (PeakFUUtil, DRAMUtil), matching Figure 3's axes.
func (a AppMetrics) Point() (peakFU, dramUtil float64) {
	return a.PeakFUUtil(), a.DRAMUtil()
}

// Classification maps application names to ordered variability classes.
type Classification struct {
	K       int
	classOf map[string]vprof.Class
	// Centers holds the K class centroids in (PeakFUUtil, DRAMUtil)
	// space, indexed by class, used to classify new applications.
	Centers [][2]float64
}

// ClassOf returns the class assigned to the named application and whether
// the application was part of the classified set.
func (c *Classification) ClassOf(name string) (vprof.Class, bool) {
	cl, ok := c.classOf[name]
	return cl, ok
}

// Apps returns the classified application names, sorted.
func (c *Classification) Apps() []string {
	names := make([]string, 0, len(c.classOf))
	for n := range c.classOf {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Classify groups the applications into k ordered classes with K-Means in
// the (PeakFUUtil, DRAMUtil) plane. Classes are ordered by compute
// intensity: the cluster with the highest centroid PeakFUUtil (ties broken
// by lower DRAMUtil) becomes Class A. With k=3 on the builtin Figure-3
// dataset this reproduces the paper's A/B/C assignment.
func Classify(apps []AppMetrics, k int) (*Classification, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("classifier: no applications to classify")
	}
	if k < 1 || k > len(apps) {
		return nil, fmt.Errorf("classifier: k=%d out of range for %d apps", k, len(apps))
	}
	points := make([][]float64, len(apps))
	for i, a := range apps {
		fu, dram := a.Point()
		points[i] = []float64{fu, dram}
	}
	res := kmeans.Cluster(points, k)

	// Order clusters by descending compute intensity. "Compute intensity"
	// here is how far the cluster leans toward the FU axis: high PeakFU
	// and low DRAM first (Class A), low PeakFU / high DRAM last.
	type ci struct {
		idx   int
		score float64
		fu    float64
		dram  float64
	}
	order := make([]ci, len(res.Centroids))
	for i, c := range res.Centroids {
		order[i] = ci{idx: i, score: c[0] - c[1], fu: c[0], dram: c[1]}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].score != order[b].score {
			return order[a].score > order[b].score
		}
		return order[a].fu > order[b].fu
	})
	remap := make([]vprof.Class, len(order))
	centers := make([][2]float64, len(order))
	for newIdx, o := range order {
		remap[o.idx] = vprof.Class(newIdx)
		centers[newIdx] = [2]float64{o.fu, o.dram}
	}

	cl := &Classification{
		K:       k,
		classOf: make(map[string]vprof.Class, len(apps)),
		Centers: centers,
	}
	for i, a := range apps {
		cl.classOf[a.Name] = remap[res.Assign[i]]
	}
	return cl, nil
}

// ClassifyNew assigns a previously unseen application to the nearest
// existing class centroid in the 2-D space (§III-A: "for a new
// application ... we profile the application and assign it to the cluster
// it is closest to").
func (c *Classification) ClassifyNew(app AppMetrics) vprof.Class {
	fu, dram := app.Point()
	best, bestD := 0, -1.0
	for i, ctr := range c.Centers {
		dx := fu - ctr[0]
		dy := dram - ctr[1]
		d := float64(dx*dx) + float64(dy*dy)
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return vprof.Class(best)
}
