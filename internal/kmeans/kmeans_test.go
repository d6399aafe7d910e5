package kmeans

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestCluster1DSeparated(t *testing.T) {
	// Two well-separated blobs.
	vals := []float64{1.0, 1.1, 0.9, 1.05, 5.0, 5.1, 4.9}
	res := Cluster1D(vals, 2)
	cents := Centroids1D(res)
	if len(cents) != 2 {
		t.Fatalf("K = %d, want 2", len(cents))
	}
	if !(cents[0] > 0.9 && cents[0] < 1.1) || !(cents[1] > 4.8 && cents[1] < 5.2) {
		t.Errorf("centroids = %v", cents)
	}
	// Ascending order and matching assignments.
	for i, v := range vals {
		wantBin := 0
		if v > 3 {
			wantBin = 1
		}
		if res.Assign[i] != wantBin {
			t.Errorf("value %v assigned to bin %d", v, res.Assign[i])
		}
	}
}

func TestClusterCentroidsSorted(t *testing.T) {
	r := rng.New(5)
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = r.Float64() * 10
	}
	for k := 2; k <= 6; k++ {
		res := Cluster1D(vals, k)
		cents := Centroids1D(res)
		for i := 1; i < len(cents); i++ {
			if cents[i] < cents[i-1] {
				t.Fatalf("k=%d centroids not ascending: %v", k, cents)
			}
		}
	}
}

// TestNearestCentroidProperty: every point must be assigned to its nearest
// centroid (the defining K-Means invariant).
func TestNearestCentroidProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(80)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 100
		}
		k := 2 + r.Intn(5)
		res := Cluster1D(vals, k)
		cents := Centroids1D(res)
		for i, v := range vals {
			dAssigned := math.Abs(v - cents[res.Assign[i]])
			for _, c := range cents {
				if math.Abs(v-c) < dAssigned-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCentroidIsMeanProperty: each centroid equals the mean of its members.
func TestCentroidIsMeanProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 10
		}
		res := Cluster1D(vals, 3)
		cents := Centroids1D(res)
		sums := make([]float64, len(cents))
		counts := make([]int, len(cents))
		for i, v := range vals {
			sums[res.Assign[i]] += v
			counts[res.Assign[i]]++
		}
		for c := range cents {
			if counts[c] == 0 {
				continue
			}
			if math.Abs(cents[c]-sums[c]/float64(counts[c])) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestClusterDeterministic(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	a := Cluster1D(vals, 3)
	b := Cluster1D(vals, 3)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("clustering not deterministic")
		}
	}
}

func TestClusterEdgeCases(t *testing.T) {
	if res := Cluster(nil, 3); res.K() != 0 {
		t.Error("empty input should give empty result")
	}
	// k > n clamps to n.
	res := Cluster1D([]float64{1, 2}, 5)
	if res.K() != 2 {
		t.Errorf("K = %d, want clamped 2", res.K())
	}
	// k < 1 clamps to 1.
	res = Cluster1D([]float64{1, 2, 3}, 0)
	if res.K() != 1 {
		t.Errorf("K = %d, want 1", res.K())
	}
	// Identical values: all in one populated cluster, no NaNs.
	res = Cluster1D([]float64{2, 2, 2, 2}, 2)
	for _, c := range Centroids1D(res) {
		if math.IsNaN(c) {
			t.Error("NaN centroid on constant input")
		}
	}
}

func TestSizes(t *testing.T) {
	res := Cluster1D([]float64{1, 1, 1, 10}, 2)
	sizes := res.Sizes()
	if sizes[0] != 3 || sizes[1] != 1 {
		t.Errorf("Sizes = %v", sizes)
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	r := rng.New(77)
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = r.Float64() * 50
	}
	prev := math.Inf(1)
	for k := 1; k <= 5; k++ {
		res := Cluster1D(vals, k)
		if res.Inertia > prev+1e-9 {
			t.Errorf("inertia increased from %v to %v at k=%d", prev, res.Inertia, k)
		}
		prev = res.Inertia
	}
}

func TestSilhouetteSeparatedVsOverlapping(t *testing.T) {
	separated := []float64{1, 1.01, 0.99, 10, 10.01, 9.99}
	resSep := Cluster1D(separated, 2)
	sSep := Silhouette1D(separated, resSep)
	if sSep < 0.9 {
		t.Errorf("separated silhouette = %v, want ~1", sSep)
	}
	overlapping := []float64{1, 2, 3, 4, 5, 6}
	resOver := Cluster1D(overlapping, 2)
	sOver := Silhouette1D(overlapping, resOver)
	if sOver >= sSep {
		t.Errorf("overlapping silhouette %v should be below separated %v", sOver, sSep)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	if s := Silhouette1D(nil, &Result{}); s != 0 {
		t.Errorf("empty silhouette = %v", s)
	}
	res := Cluster1D([]float64{1, 2, 3}, 1)
	if s := Silhouette1D([]float64{1, 2, 3}, res); s != 0 {
		t.Errorf("K=1 silhouette = %v, want 0", s)
	}
}

func TestSplitOutliers(t *testing.T) {
	// 20 values near 1.0 plus one extreme.
	vals := make([]float64, 21)
	for i := 0; i < 20; i++ {
		vals[i] = 1.0 + float64(i%5)*0.01
	}
	vals[20] = 50
	in, out := SplitOutliers(vals)
	if len(out) != 1 || out[0] != 20 {
		t.Errorf("outliers = %v", out)
	}
	if len(in) != 20 {
		t.Errorf("inliers = %d", len(in))
	}
}

func TestSelectKBimodal(t *testing.T) {
	var vals []float64
	r := rng.New(9)
	for i := 0; i < 50; i++ {
		vals = append(vals, 0.95+r.Float64()*0.02)
	}
	for i := 0; i < 50; i++ {
		vals = append(vals, 1.10+r.Float64()*0.02)
	}
	sel := SelectK(vals)
	if sel.K != 2 {
		t.Errorf("SelectK on bimodal = %d, want 2 (sweep %v)", sel.K, sel.Sweep)
	}
	if sel.Score < 0.8 {
		t.Errorf("silhouette = %v, want high", sel.Score)
	}
}

func TestSelectKRange(t *testing.T) {
	r := rng.New(10)
	vals := make([]float64, 120)
	for i := range vals {
		vals[i] = r.LogNormal(0, 0.1)
	}
	sel := SelectK(vals)
	if sel.K < MinK || sel.K > MaxK {
		t.Errorf("K = %d outside [%d,%d]", sel.K, MinK, MaxK)
	}
	for k := range sel.Sweep {
		if k < MinK || k > MaxK {
			t.Errorf("sweep tried K=%d", k)
		}
	}
}

func TestSelectKDegenerate(t *testing.T) {
	sel := SelectK([]float64{1, 1, 1})
	if sel.K != 1 {
		t.Errorf("constant data K = %d, want 1", sel.K)
	}
}

func TestBinCoversAllIndices(t *testing.T) {
	r := rng.New(11)
	vals := make([]float64, 128)
	for i := range vals {
		vals[i] = r.LogNormal(0, 0.08)
	}
	vals[0] = 3.5 // force an outlier
	b := Bin(vals)
	if len(b.BinOf) != len(vals) {
		t.Fatalf("BinOf covers %d of %d", len(b.BinOf), len(vals))
	}
	for i, bin := range b.BinOf {
		if bin < 0 || bin >= b.NumBins() {
			t.Fatalf("value %d in invalid bin %d", i, bin)
		}
	}
	// Bins ascending.
	for i := 1; i < len(b.Scores); i++ {
		if b.Scores[i] < b.Scores[i-1] {
			t.Fatalf("bin scores not ascending: %v", b.Scores)
		}
	}
}

// TestBinOverflowingValuesStillBinned: values so far apart that their
// squared distances overflow make every silhouette NaN; the binning must
// still cover every index (it used to come back with no bins at all, and
// the first placer lookup panicked).
func TestBinOverflowingValuesStillBinned(t *testing.T) {
	vals := []float64{1e300, 1e300, 1, 1, 1.05, 1.1, 1.2, 1.3}
	b := Bin(vals)
	if b.NumBins() == 0 {
		t.Fatal("no bins")
	}
	for i, bin := range b.BinOf {
		if bin < 0 || bin >= b.NumBins() {
			t.Fatalf("value %d in invalid bin %d of %d", i, bin, b.NumBins())
		}
	}
}

func TestBinOutlierExactScore(t *testing.T) {
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = 1.0 + float64(i%7)*0.005
	}
	vals[59] = 7.77
	b := Bin(vals)
	if got := b.ScoreOf(59); got != 7.77 {
		t.Errorf("outlier score = %v, want its exact value", got)
	}
}

// TestBinScoreWithinBinRangeProperty: the representative score of an
// inlier bin must lie within the range of its members' values.
func TestBinScoreWithinBinRangeProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		vals := make([]float64, 80)
		for i := range vals {
			vals[i] = r.LogNormal(0, 0.1)
		}
		b := Bin(vals)
		lo := make([]float64, b.NumBins())
		hi := make([]float64, b.NumBins())
		for i := range lo {
			lo[i], hi[i] = math.Inf(1), math.Inf(-1)
		}
		for i, bin := range b.BinOf {
			if vals[i] < lo[bin] {
				lo[bin] = vals[i]
			}
			if vals[i] > hi[bin] {
				hi[bin] = vals[i]
			}
		}
		for bin, s := range b.Scores {
			if s < lo[bin]-1e-9 || s > hi[bin]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
