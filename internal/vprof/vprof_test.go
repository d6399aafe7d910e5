package vprof

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestClassString(t *testing.T) {
	if ClassA.String() != "A" || ClassB.String() != "B" || ClassC.String() != "C" {
		t.Error("class names wrong")
	}
	if Class(99).String() == "" {
		t.Error("out-of-range class has empty name")
	}
}

func TestNewProfileNormalization(t *testing.T) {
	raw := [][]float64{
		{10, 20, 30, 40, 50}, // median 30
		{5, 5, 5, 5, 5},
	}
	p, err := NewProfile("test", raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Score(0, 2); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("median GPU score = %v, want 1", got)
	}
	if got := p.Score(0, 4); math.Abs(got-50.0/30) > 1e-12 {
		t.Errorf("score = %v", got)
	}
	if med := stats.Median(p.ClassScores(0)); math.Abs(med-1) > 1e-12 {
		t.Errorf("median after normalization = %v", med)
	}
}

func TestNewProfileErrors(t *testing.T) {
	if _, err := NewProfile("x", nil); err == nil {
		t.Error("no classes should error")
	}
	if _, err := NewProfile("x", [][]float64{{}}); err == nil {
		t.Error("no GPUs should error")
	}
	if _, err := NewProfile("x", [][]float64{{1, 2}, {1}}); err == nil {
		t.Error("mismatched class sizes should error")
	}
	if _, err := NewProfile("x", [][]float64{{0, 0, 0}}); err == nil {
		t.Error("non-positive median should error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateLonghorn(64, 42)
	b := GenerateLonghorn(64, 42)
	for c := 0; c < a.NumClasses(); c++ {
		for g := 0; g < a.NumGPUs(); g++ {
			if a.Score(Class(c), g) != b.Score(Class(c), g) {
				t.Fatalf("generation not deterministic at class %d gpu %d", c, g)
			}
		}
	}
	diff := GenerateLonghorn(64, 43)
	same := true
	for g := 0; g < a.NumGPUs(); g++ {
		if a.Score(ClassA, g) != diff.Score(ClassA, g) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical profiles")
	}
}

func TestGeneratedVariabilityOrdering(t *testing.T) {
	// Class A must be more variable than B, which must be more variable
	// than C — the paper's central observation.
	for _, gen := range []func(int, uint64) *Profile{GenerateLonghorn, GenerateFrontera} {
		p := gen(256, 7)
		va, vb, vc := p.Variability(ClassA), p.Variability(ClassB), p.Variability(ClassC)
		if !(va > vb && vb > vc) {
			t.Errorf("%s: variability ordering broken: A=%v B=%v C=%v", p.Name(), va, vb, vc)
		}
		if vc > 0.02 {
			t.Errorf("%s: Class C variability %v, want ~1%%", p.Name(), vc)
		}
		if va < 0.08 {
			t.Errorf("%s: Class A variability %v, want substantial", p.Name(), va)
		}
	}
}

func TestGeneratedMedianIsOne(t *testing.T) {
	p := GenerateLonghorn(128, 3)
	for c := 0; c < p.NumClasses(); c++ {
		med := stats.Median(p.ClassScores(Class(c)))
		if math.Abs(med-1) > 1e-9 {
			t.Errorf("class %d median = %v", c, med)
		}
	}
}

func TestGeneratedOutlierTail(t *testing.T) {
	p := GenerateLonghorn(416, 11)
	if p.MaxScore(ClassA) < 1.5 {
		t.Errorf("Class A max = %v, want a slow tail", p.MaxScore(ClassA))
	}
	if p.MaxScore(ClassC) > 1.1 {
		t.Errorf("Class C max = %v, want flat", p.MaxScore(ClassC))
	}
}

func TestTestbedTighterThanLonghorn(t *testing.T) {
	lh := GenerateLonghorn(416, 5)
	tb := GenerateTestbed(5)
	if tb.Variability(ClassA) >= lh.Variability(ClassA) {
		t.Errorf("testbed Class A %v should be tighter than Longhorn %v",
			tb.Variability(ClassA), lh.Variability(ClassA))
	}
}

func TestSubsample(t *testing.T) {
	full := GenerateLonghorn(128, 9)
	perm := rng.New(1).Perm(128)
	sub, err := full.Subsample("sub", perm, 32)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumGPUs() != 32 || sub.NumClasses() != full.NumClasses() {
		t.Fatalf("subsample shape %d/%d", sub.NumGPUs(), sub.NumClasses())
	}
	// Re-normalized to its own median.
	if med := stats.Median(sub.ClassScores(ClassA)); math.Abs(med-1) > 1e-9 {
		t.Errorf("subsample median = %v", med)
	}
	if _, err := full.Subsample("bad", perm, 500); err == nil {
		t.Error("oversized subsample should error")
	}
}

func TestPerturbStale(t *testing.T) {
	p := GenerateTestbed(13)
	// Inflate node 0's Class A truth by 4x (i.e. the view divides by 1/4).
	truth, err := PerturbStaleGPUs(p, ClassA, []int{0, 1, 2, 3}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		ratio := truth.Score(ClassA, g) / p.Score(ClassA, g)
		// Renormalization shifts the median slightly; the ratio must be
		// near 4.
		if ratio < 3 || ratio > 5 {
			t.Errorf("gpu %d truth/view ratio = %v, want ~4", g, ratio)
		}
	}
	// Other nodes barely change (only renormalization).
	r := truth.Score(ClassA, 10) / p.Score(ClassA, 10)
	if r < 0.8 || r > 1.2 {
		t.Errorf("unperturbed GPU ratio = %v", r)
	}
	// Class B untouched up to renormalization.
	rb := truth.Score(ClassB, 0) / p.Score(ClassB, 0)
	if math.Abs(rb-1) > 1e-9 {
		t.Errorf("class B perturbed: ratio %v", rb)
	}
}

func TestPerturbStaleBadFactor(t *testing.T) {
	if _, err := PerturbStaleGPUs(GenerateTestbed(1), ClassA, []int{0, 1, 2, 3}, 0); err == nil {
		t.Fatal("factor 0 did not error")
	}
}

func TestBinProfile(t *testing.T) {
	p := GenerateLonghorn(128, 21)
	b := BinProfile(p)
	if b.NumGPUs() != 128 || b.NumClasses() != NumClasses {
		t.Fatal("binned shape wrong")
	}
	for c := Class(0); int(c) < b.NumClasses(); c++ {
		scores := b.BinScores(c)
		if len(scores) == 0 {
			t.Fatalf("class %d has no bins", c)
		}
		for i := 1; i < len(scores); i++ {
			if scores[i] < scores[i-1] {
				t.Fatalf("class %d bins not ascending", c)
			}
		}
		for g := 0; g < b.NumGPUs(); g++ {
			bin := b.BinOf(c, g)
			if bin < 0 || bin >= b.NumBins(c) {
				t.Fatalf("gpu %d invalid bin %d", g, bin)
			}
			if b.Score(c, g) != scores[bin] {
				t.Fatalf("Score != bin score for gpu %d", g)
			}
		}
	}
}

// TestBinnedScoreNearExactProperty: a GPU's binned score must be within
// the class's score range and reasonably near its exact score for inliers.
func TestBinnedScoreNearExactProperty(t *testing.T) {
	check := func(seed uint64) bool {
		p := GenerateLonghorn(96, seed)
		b := BinProfile(p)
		for c := Class(0); int(c) < p.NumClasses(); c++ {
			lo := stats.Min(p.ClassScores(c))
			hi := stats.Max(p.ClassScores(c))
			for g := 0; g < p.NumGPUs(); g++ {
				s := b.Score(c, g)
				if s < lo-1e-9 || s > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGeneratePanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate(0 GPUs) did not panic")
		}
	}()
	Generate(LonghornShape(), 0, 1)
}

func TestBinProfileK(t *testing.T) {
	p := GenerateLonghorn(96, 33)
	for _, k := range []int{1, 2, 4, 8} {
		b := BinProfileK(p, k)
		for c := Class(0); int(c) < p.NumClasses(); c++ {
			if got := b.NumBins(c); got > k {
				t.Errorf("k=%d class %d has %d bins", k, c, got)
			}
			scores := b.BinScores(c)
			for i := 1; i < len(scores); i++ {
				if scores[i] < scores[i-1] {
					t.Fatalf("k=%d class %d bins not ascending", k, c)
				}
			}
			for g := 0; g < b.NumGPUs(); g++ {
				if bin := b.BinOf(c, g); bin < 0 || bin >= b.NumBins(c) {
					t.Fatalf("k=%d invalid bin %d", k, bin)
				}
			}
		}
	}
	// K=1 collapses all GPUs into one bin: every score identical.
	b1 := BinProfileK(p, 1)
	for g := 1; g < b1.NumGPUs(); g++ {
		if b1.Score(ClassA, g) != b1.Score(ClassA, 0) {
			t.Fatal("K=1 should give every GPU the same score")
		}
	}
}

func TestPerturbStaleGPUs(t *testing.T) {
	p := GenerateTestbed(17)
	truth, err := PerturbStaleGPUs(p, ClassA, []int{2, 5}, 0.5) // doubles 2 and 5
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{2, 5} {
		ratio := truth.Score(ClassA, g) / p.Score(ClassA, g)
		if ratio < 1.8 || ratio > 2.2 {
			t.Errorf("gpu %d ratio %v, want ~2", g, ratio)
		}
	}
	// Out-of-range GPUs are ignored, not a crash.
	if _, err := PerturbStaleGPUs(p, ClassA, []int{-1, 9999}, 0.5); err != nil {
		t.Fatal(err)
	}
}
