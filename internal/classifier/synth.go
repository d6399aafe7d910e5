package classifier

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/vprof"
)

// This file synthesizes nsight-compute-style kernel profiles for
// applications of a given class archetype. The paper's deployment story
// (§III-A) assumes a stream of previously-unseen applications that must
// be profiled briefly and classified against the existing class
// centroids; this generator provides that stream for tests, examples and
// robustness studies without GPU hardware.

// Archetype parameterizes the kernel-profile distribution of one
// application class.
type Archetype struct {
	Class vprof.Class
	// FU is the dominant function unit of the archetype's hot kernels.
	FU FuncUnit
	// HotFU / HotDRAM parameterize the hot kernels' utilization ranges.
	HotFUMin, HotFUMax     float64
	HotDRAMMin, HotDRAMMax float64
	// Aux kernels (normalization, elementwise, reshapes) dilute the hot
	// kernels; these bounds govern their share of total runtime.
	AuxShareMin, AuxShareMax float64
}

// DefaultArchetypes returns archetypes matching the three paper classes:
// compute-bound (A), balanced language-model-like (B), and memory-bound
// (C).
func DefaultArchetypes() []Archetype {
	return []Archetype{
		{
			Class: vprof.ClassA, FU: FUSingle,
			HotFUMin: 8.0, HotFUMax: 9.9,
			HotDRAMMin: 0.15, HotDRAMMax: 0.35,
			AuxShareMin: 0.05, AuxShareMax: 0.20,
		},
		{
			Class: vprof.ClassB, FU: FUTensor,
			HotFUMin: 4.0, HotFUMax: 6.5,
			HotDRAMMin: 0.38, HotDRAMMax: 0.55,
			AuxShareMin: 0.15, AuxShareMax: 0.35,
		},
		{
			Class: vprof.ClassC, FU: FUSingle,
			HotFUMin: 0.8, HotFUMax: 2.5,
			HotDRAMMin: 0.60, HotDRAMMax: 0.80,
			AuxShareMin: 0.10, AuxShareMax: 0.30,
		},
	}
}

// Synthesize generates a plausible kernel profile for an application of
// the archetype. The result has 2-5 kernels whose runtime-weighted
// aggregates land inside the archetype's region of the classification
// plane. Deterministic in (archetype, name, r's stream position).
func Synthesize(a Archetype, name string, r *rng.RNG) AppMetrics {
	app := AppMetrics{Name: name}
	nHot := 1 + r.Intn(2)
	nAux := 1 + r.Intn(3)

	hotShare := 1.0 - (a.AuxShareMin + float64(r.Float64()*(a.AuxShareMax-a.AuxShareMin)))
	totalRuntime := 5.0 + float64(r.Float64()*10)

	for i := 0; i < nHot; i++ {
		k := Kernel{
			Name:    fmt.Sprintf("%s_hot%d", name, i),
			Runtime: totalRuntime * hotShare / float64(nHot),
			DRAMBW:  a.HotDRAMMin + float64(r.Float64()*(a.HotDRAMMax-a.HotDRAMMin)),
		}
		k.FUUtil[a.FU] = a.HotFUMin + float64(r.Float64()*(a.HotFUMax-a.HotFUMin))
		// Secondary units see light traffic.
		for fu := FuncUnit(0); fu < numFuncUnits; fu++ {
			if fu != a.FU {
				k.FUUtil[fu] = r.Float64() * 1.2
			}
		}
		app.Kernels = append(app.Kernels, k)
	}
	for i := 0; i < nAux; i++ {
		k := Kernel{
			Name:    fmt.Sprintf("%s_aux%d", name, i),
			Runtime: totalRuntime * (1 - hotShare) / float64(nAux),
			DRAMBW:  0.45 + float64(r.Float64()*0.25), // aux kernels are bandwidth-ish
		}
		k.FUUtil[FUSingle] = 1.0 + float64(r.Float64()*2.5)
		k.FUUtil[FUSpecial] = r.Float64() * 1.5
		app.Kernels = append(app.Kernels, k)
	}
	return app
}

// SynthesizeBatch generates count applications per archetype, returning
// them with their ground-truth classes for classifier robustness tests.
func SynthesizeBatch(archetypes []Archetype, count int, seed uint64) ([]AppMetrics, []vprof.Class) {
	r := rng.New(seed)
	var apps []AppMetrics
	var truth []vprof.Class
	for ai, a := range archetypes {
		stream := r.Split(uint64(ai))
		for i := 0; i < count; i++ {
			apps = append(apps, Synthesize(a, fmt.Sprintf("synth-%s-%d", a.Class, i), stream))
			truth = append(truth, a.Class)
		}
	}
	return apps, truth
}
