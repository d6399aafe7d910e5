package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	s1 := r.Split(1)
	s2 := r.Split(2)
	s1again := New(7).Split(1)
	// Same label from same parent state reproduces the stream.
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s1again.Uint64() {
			t.Fatalf("Split(1) not reproducible at step %d", i)
		}
	}
	// Different labels give different streams.
	a, b := New(7).Split(1), New(7).Split(2)
	if a.Uint64() == b.Uint64() {
		t.Fatal("Split(1) and Split(2) start identically")
	}
	_ = s2
}

func TestSplitDoesNotDisturbParent(t *testing.T) {
	a, b := New(9), New(9)
	_ = a.Split(5)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	check := func(seed uint64) bool {
		v := New(seed).Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBoundsProperty(t *testing.T) {
	check := func(seed uint64, n int) bool {
		if n <= 0 {
			n = -n + 1
		}
		v := New(seed).Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// TestIntnGoldenSequence pins Intn's draws from one stream across small,
// 33-bit, near-2^62 and maximal bounds. The large bounds reject often,
// so the sequence also pins how many Uint64 draws each call consumes:
// any change to the multiply-shift or its rejection test shows here.
func TestIntnGoldenSequence(t *testing.T) {
	golden := []struct {
		n    int
		want []int
	}{
		{1, []int{0, 0, 0, 0, 0, 0, 0, 0}},
		{3, []int{2, 1, 2, 2, 0, 0, 1, 2}},
		{1<<32 + 1, []int{125750120, 2183948292, 1519357071, 651375782, 498475562, 1362395918, 2699845937, 3233780388}},
		{1<<62 + 12345, []int{4314566276076525764, 4096314945419789049, 4284751876061455982, 1212056011619985830,
			3199254192516871293, 4107381794224654458, 3916795224161654058, 1620140812304730755}},
		{math.MaxInt64, []int{6919915301014536220, 8864070113617661, 6981815158017833659, 6734610389038276823,
			5169029433885104860, 288506768915283615, 918813200874755451, 6452425776103585588}},
	}
	r := New(20241017)
	for _, g := range golden {
		for i, want := range g.want {
			if got := r.Intn(g.n); got != want {
				t.Fatalf("Intn(%d) draw %d = %d, want %d", g.n, i, got, want)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const buckets, n = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		if c < n/buckets*8/10 || c > n/buckets*12/10 {
			t.Errorf("bucket %d count %d far from uniform %d", b, c, n/buckets)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(17)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(math.Log(900), 1.2)
	}
	// Median of lognormal(mu, sigma) is exp(mu).
	med := quickMedian(vals)
	if med < 850 || med > 950 {
		t.Errorf("lognormal median = %v, want ~900", med)
	}
}

func quickMedian(vals []float64) float64 {
	// Selection via partial sort: fine for tests.
	cp := append([]float64(nil), vals...)
	for i := 0; i <= len(cp)/2; i++ {
		minIdx := i
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[minIdx] {
				minIdx = j
			}
		}
		cp[i], cp[minIdx] = cp[minIdx], cp[i]
	}
	return cp[len(cp)/2]
}

func TestExpMean(t *testing.T) {
	r := New(19)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(2.0)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestExpPanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		p := New(seed).Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(31)
	xs := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	Shuffle(r, xs)
	for _, v := range xs {
		sum += v
	}
	if sum != 28 {
		t.Errorf("shuffle changed elements: %v", xs)
	}
}

// TestShuffleGolden pins Shuffle's permutations and the stream
// position it leaves: Packed and Random shuffle every round, so a
// changed draw order would move every recorded non-sticky result. The
// values were recorded from the earlier swap-callback Shuffle(n, swap),
// which this function replaced draw for draw.
func TestShuffleGolden(t *testing.T) {
	golden := []struct {
		seed  uint64
		perm  []int
		state uint64
	}{
		{1, []int{0}, 1},
		{1, []int{0, 1}, 11400714819323198486},
		{1, []int{1, 0, 3, 4, 2}, 8709371129873690709},
		{1, []int{9, 6, 48, 22, 56, 52, 58, 18, 0, 44, 10, 42, 35, 4, 51, 14, 54, 25, 57, 17, 47, 40, 24, 63, 16, 49, 33, 28, 55, 7, 13, 12, 37, 41, 34, 62, 59, 19, 1, 11, 5, 20, 3, 2, 39, 31, 38, 30, 8, 53, 61, 23, 32, 21, 43, 15, 29, 50, 45, 26, 27, 60, 46, 36}, 17268758816398543148},
		{2, []int{0}, 2},
		{2, []int{0, 1}, 11400714819323198487},
		{2, []int{0, 3, 1, 4, 2}, 8709371129873690710},
		{2, []int{27, 12, 1, 11, 21, 38, 25, 4, 15, 24, 54, 39, 44, 6, 53, 43, 58, 45, 31, 41, 55, 33, 3, 32, 5, 52, 35, 7, 30, 26, 34, 8, 63, 29, 10, 0, 56, 50, 51, 61, 13, 16, 22, 2, 62, 49, 17, 48, 9, 60, 19, 28, 23, 59, 40, 14, 57, 42, 20, 18, 46, 36, 47, 37}, 17268758816398543149},
		{3, []int{0}, 3},
		{3, []int{1, 0}, 11400714819323198488},
		{3, []int{3, 4, 1, 2, 0}, 8709371129873690711},
		{3, []int{47, 62, 20, 22, 42, 21, 29, 1, 32, 43, 5, 19, 61, 54, 2, 52, 0, 16, 10, 41, 56, 15, 11, 3, 25, 9, 18, 13, 31, 59, 55, 6, 33, 49, 30, 23, 46, 8, 34, 51, 45, 28, 40, 36, 26, 57, 60, 14, 39, 35, 17, 24, 53, 58, 48, 27, 50, 63, 37, 12, 4, 38, 44, 7}, 17268758816398543150},
	}
	for _, g := range golden {
		p := make([]int, len(g.perm))
		for i := range p {
			p[i] = i
		}
		r := New(g.seed)
		Shuffle(r, p)
		if !slices.Equal(p, g.perm) || r.State() != g.state {
			t.Errorf("seed %d, length %d: got %v (state %d), want %v (state %d)",
				g.seed, len(p), p, r.State(), g.perm, g.state)
		}
		if q := New(g.seed).Perm(len(p)); !slices.Equal(q, g.perm) {
			t.Errorf("seed %d: Perm(%d) = %v, want %v", g.seed, len(p), q, g.perm)
		}
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := New(37)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.Choice(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestChoicePanicsWithoutPositiveWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice with all-zero weights did not panic")
		}
	}()
	New(1).Choice([]float64{0, 0})
}

func TestZeroValueUsable(t *testing.T) {
	var r RNG
	if v := r.Float64(); v < 0 || v >= 1 {
		t.Errorf("zero-value RNG Float64 = %v", v)
	}
}
