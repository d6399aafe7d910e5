package stats

import (
	"testing"

	"repro/internal/rng"
)

func TestBootstrapImprovementCI(t *testing.T) {
	// ours is consistently 40% below base: the CI must sit near 0.40 and
	// exclude 0.
	r := rng.New(5)
	base := make([]float64, 300)
	ours := make([]float64, 300)
	for i := range base {
		base[i] = 100 + 10*r.NormFloat64()
		ours[i] = 60 + 6*r.NormFloat64()
	}
	ci := BootstrapImprovementCI(base, ours, 500, 0.95, 2)
	sampleImp := Improvement(Mean(base), Mean(ours))
	if !ci.Contains(sampleImp) {
		t.Errorf("CI %+v does not contain the sample improvement %v", ci, sampleImp)
	}
	if ci.Low < 0.35 || ci.High > 0.45 {
		t.Errorf("CI %+v far from the true improvement 0.40", ci)
	}
	if ci.Contains(0) {
		t.Errorf("CI %+v should exclude zero for a real effect", ci)
	}
}

func TestBootstrapDegenerateInputs(t *testing.T) {
	degenerate := CI{Level: 0.95}
	if ci := BootstrapImprovementCI(nil, nil, 100, 0.95, 1); ci != degenerate {
		t.Errorf("empty sample CI = %+v", ci)
	}
	if ci := BootstrapImprovementCI([]float64{1}, []float64{1, 2}, 100, 0.95, 1); ci != degenerate {
		t.Errorf("mismatched pairs CI = %+v", ci)
	}
	if ci := BootstrapImprovementCI([]float64{1, 2}, []float64{1, 2}, 0, 0.95, 1); ci != degenerate {
		t.Errorf("zero resamples CI = %+v", ci)
	}
}
