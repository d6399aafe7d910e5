package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vprof"
)

func onlineFixture() (*OnlineScorer, *fakeBinned) {
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1.0
	}
	base := newFake(uniformScores(scores, 2))
	return NewOnlineScorer(base), base
}

func observe(o *OnlineScorer, class vprof.Class, gpu int, v float64, times int) {
	j := &sim.Job{Alloc: []cluster.GPUID{cluster.GPUID(gpu)}}
	j.Spec.Class = class
	j.Spec.Demand = 1
	for i := 0; i < times; i++ {
		o.ObserveRound(j, []float64{v}, 0)
	}
}

func TestOnlineScorerStartsAtStatic(t *testing.T) {
	o, base := onlineFixture()
	for g := 0; g < 16; g++ {
		if o.Score(0, g) != base.Score(0, g) {
			t.Fatalf("unwarmed score differs at gpu %d", g)
		}
	}
	if o.NumGPUs() != 16 || o.NumClasses() != 2 {
		t.Error("shape delegation wrong")
	}
	if len(o.BinScores(0)) == 0 {
		t.Error("BinScores empty")
	}
}

func TestOnlineScorerLearnsGrossStaleness(t *testing.T) {
	o, _ := onlineFixture()
	observe(o, 0, 3, 3.0, 3) // GPU 3 is secretly 3x slow
	got := o.Score(0, 3)
	if got < 2.5 {
		t.Errorf("learned score = %v, want ~3.0", got)
	}
	// Other GPUs and the other class stay static.
	if o.Score(0, 4) != 1.0 || o.Score(1, 3) != 1.0 {
		t.Error("learning leaked to other GPUs/classes")
	}
}

func TestOnlineScorerIgnoresSmallDeviation(t *testing.T) {
	o, _ := onlineFixture()
	observe(o, 0, 5, 1.2, 10) // within the 1.5x divergence band
	if got := o.Score(0, 5); got != 1.0 {
		t.Errorf("score = %v, want static 1.0 (deviation under threshold)", got)
	}
}

func TestOnlineScorerMinSamples(t *testing.T) {
	o, _ := onlineFixture()
	observe(o, 0, 7, 4.0, 1) // one observation < MinSamples (2)
	if got := o.Score(0, 7); got != 1.0 {
		t.Errorf("score = %v, want static until MinSamples", got)
	}
	observe(o, 0, 7, 4.0, 1)
	if got := o.Score(0, 7); got < 3.5 {
		t.Errorf("score = %v, want learned after MinSamples", got)
	}
}

func TestOnlineScorerVersionBumpsOnlyOnEffectiveChange(t *testing.T) {
	o, _ := onlineFixture()
	v0 := o.Version()
	observe(o, 0, 2, 1.05, 20) // noise within the band: no effective change
	if o.Version() != v0 {
		t.Errorf("version moved on sub-threshold noise")
	}
	observe(o, 0, 2, 5.0, 10) // pushes the EWMA over the divergence band
	if o.Version() == v0 {
		t.Error("version did not move when the effective score changed")
	}
}

func TestOnlineScorerMultiGPUObservation(t *testing.T) {
	o, _ := onlineFixture()
	j := &sim.Job{Alloc: []cluster.GPUID{4, 5, 6}}
	j.Spec.Class = 0
	j.Spec.Demand = 3
	for i := 0; i < 3; i++ {
		o.ObserveRound(j, []float64{1.0, 2.5, 1.0}, 0)
	}
	if got := o.Score(0, 5); got < 2.0 {
		t.Errorf("rank telemetry not attributed: gpu 5 score %v", got)
	}
	if o.Score(0, 4) != 1.0 || o.Score(0, 6) != 1.0 {
		t.Error("healthy gang members should stay static")
	}
	if o.Samples(0, 5) != 3 {
		t.Errorf("samples = %d, want 3", o.Samples(0, 5))
	}
}

func TestPMFirstWithOnlineScorerAvoidsLearnedSlowGPU(t *testing.T) {
	o, _ := onlineFixture()
	observe(o, 0, 0, 3.0, 3) // GPU 0 learned slow
	p := NewPMFirst(o)
	c := topo16()
	out := p.PlaceRound(c, []*sim.Job{mkJob(0, 15, 0)}, 0)
	for _, g := range out[0] {
		if g == 0 {
			t.Error("PM-First picked the learned-slow GPU despite alternatives")
		}
	}
}

func TestPALRackLevel(t *testing.T) {
	// 4 racks x 1 node x 4 GPUs... use 2 nodes per rack: topology
	// 4 nodes, NodesPerRack 2 -> racks {0,1}, {2,3}.
	topo := cluster.Topology{NumNodes: 4, GPUsPerNode: 4, NodesPerRack: 2}
	c := cluster.New(topo)
	// Scores: rack 0 has two free GPUs on different nodes at 0.9; the
	// only single-node option is on rack 1 at 2.0; cross-rack spread
	// would mix 0.9 and 0.85 across racks.
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 2.0
	}
	scores[0], scores[4] = 0.9, 0.9   // rack 0, nodes 0 and 1
	scores[8], scores[12] = 2.0, 0.85 // rack 1
	f := newFake(uniformScores(scores, 1))

	// L_rack = 1.1, L_across = 2.0: rack-confined spread on rack 0 costs
	// 1.1*0.9 = 0.99, the packed option costs 2.0, cross-rack costs
	// 2.0*0.9 = 1.8. The rack option must win.
	p := NewPAL(f, 2.0, nil)
	p.EnableRackLevel(1.1)
	busy := []cluster.GPUID{1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15}
	c.Allocate(99, busy)
	out := p.PlaceRound(c, []*sim.Job{mkJob(0, 2, 0)}, 0)
	got := map[cluster.GPUID]bool{}
	for _, g := range out[0] {
		got[g] = true
	}
	if !got[0] || !got[4] {
		t.Errorf("rack-level PAL allocation = %v, want {0, 4} (rack 0)", out[0])
	}
	if c.RacksSpanned(out[0]) != 1 {
		t.Errorf("allocation spans %d racks", c.RacksSpanned(out[0]))
	}
}

func TestPALRackLevelMatrixShape(t *testing.T) {
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1.0
	}
	scores[0] = 0.9
	f := newFake(uniformScores(scores, 1))
	p := NewPAL(f, 2.0, nil)
	p.EnableRackLevel(1.3)
	m := p.Matrix(0)
	if len(m.Levels) != 3 {
		t.Fatalf("levels = %v, want 3", m.Levels)
	}
	if m.Levels[0] != 1.0 || m.Levels[1] != 1.3 || m.Levels[2] != 2.0 {
		t.Errorf("levels = %v", m.Levels)
	}
}

func TestPMFirstNoClassPriorityAblation(t *testing.T) {
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1 + float64(g)*0.01
	}
	f := newFake(uniformScores(scores, 3))
	p := NewPMFirst(f)
	p.NoClassPriority = true
	c := topo16()
	// Scheduling order [B, A]: with priority off, B picks first and gets
	// the better GPUs.
	jobs := []*sim.Job{mkJob(0, 2, vprof.ClassB), mkJob(1, 2, vprof.ClassA)}
	out := p.PlaceRound(c, jobs, 0)
	maxB := maxScore(scoreRow(f, vprof.ClassB, 16), out[0])
	maxA := maxScore(scoreRow(f, vprof.ClassA, 16), out[1])
	if maxB >= maxA {
		t.Errorf("with priority off, scheduling order should win: B max %v, A max %v", maxB, maxA)
	}
}

func TestNoHysteresisAblationMigrates(t *testing.T) {
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1.0
	}
	f := newFake(uniformScores(scores, 1))
	p := NewPMFirst(f)
	p.NoHysteresis = true
	c := topo16()
	j := mkJob(0, 2, 0)
	out1 := p.PlaceRound(c, []*sim.Job{j}, 0)
	j.PrevAlloc = out1[0]
	// With all scores equal and hysteresis off, the fresh pick ignores
	// PrevAlloc entirely (it may or may not coincide; the key check is
	// that hysteresis-on always reuses).
	p2 := NewPMFirst(f)
	j2 := mkJob(1, 2, 0)
	j2.PrevAlloc = []cluster.GPUID{13, 14}
	out2 := p2.PlaceRound(c, []*sim.Job{j2}, 0)
	if out2[1][0] != 13 && out2[1][1] != 13 {
		t.Errorf("hysteresis-on should reuse equal-quality PrevAlloc, got %v", out2[1])
	}
}

// TestPALPlacesWhenLearnedScoresExceedEveryBin is the regression test
// for a PAL traversal that ended in a panic: its last entry filters at
// the worst static bin, and an online scorer that learned every GPU
// runs slower than that bin left no GPU under any entry. PAL must then
// make the PM-First pick over every free GPU.
func TestPALPlacesWhenLearnedScoresExceedEveryBin(t *testing.T) {
	o, _ := onlineFixture()
	for g := 0; g < 16; g++ {
		observe(o, 0, g, 2.0+float64(g)*0.1, 2)
	}
	p := NewPAL(o, 1.5, nil)
	out := p.PlaceRound(topo16(), []*sim.Job{mkJob(0, 2, 0)}, 0)
	got := out[0]
	if len(got) != 2 {
		t.Fatalf("placed %v, want 2 GPUs", got)
	}
	// The two GPUs that learned the lowest scores.
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("placed %v, want the PM-First pick [0 1]", got)
	}
}
