package core

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// fakeBinned is a hand-built vprof.BinnedScorer with explicit per-GPU
// scores; bins are the sorted distinct scores of each class.
type fakeBinned struct {
	scores [][]float64 // [class][gpu]
	bins   [][]float64 // [class] ascending distinct scores
}

func newFake(perClass [][]float64) *fakeBinned {
	f := &fakeBinned{scores: perClass}
	f.bins = make([][]float64, len(perClass))
	for c, s := range perClass {
		seen := map[float64]bool{}
		var bins []float64
		for _, v := range s {
			if !seen[v] {
				seen[v] = true
				bins = append(bins, v)
			}
		}
		// insertion sort (small)
		for i := 1; i < len(bins); i++ {
			for j := i; j > 0 && bins[j] < bins[j-1]; j-- {
				bins[j], bins[j-1] = bins[j-1], bins[j]
			}
		}
		f.bins[c] = bins
	}
	return f
}

func (f *fakeBinned) Score(c vprof.Class, g int) float64 { return f.scores[c][g] }
func (f *fakeBinned) NumGPUs() int                       { return len(f.scores[0]) }
func (f *fakeBinned) NumClasses() int                    { return len(f.scores) }
func (f *fakeBinned) BinScores(c vprof.Class) []float64 {
	return append([]float64(nil), f.bins[c]...)
}

func mkJob(id, demand int, class vprof.Class) *sim.Job {
	return &sim.Job{
		Spec:      trace.JobSpec{ID: id, Demand: demand, Class: class, Work: 100},
		Remaining: 100,
	}
}

// topo16 is 4 nodes x 4 GPUs.
func topo16() *cluster.Cluster {
	return cluster.New(cluster.Topology{NumNodes: 4, GPUsPerNode: 4})
}

// uniformScores builds per-class scores where every class sees the same
// per-GPU values.
func uniformScores(perGPU []float64, classes int) [][]float64 {
	out := make([][]float64, classes)
	for c := range out {
		out[c] = append([]float64(nil), perGPU...)
	}
	return out
}

func TestPMFirstPicksBestGPUs(t *testing.T) {
	// GPU g has score 1 + g*0.01, so the best three are 0, 1, 2.
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1 + float64(g)*0.01
	}
	p := NewPMFirst(newFake(uniformScores(scores, 1)))
	c := topo16()
	out := p.PlaceRound(c, []*sim.Job{mkJob(0, 3, 0)}, 0)
	alloc := out[0]
	want := map[cluster.GPUID]bool{0: true, 1: true, 2: true}
	for _, g := range alloc {
		if !want[g] {
			t.Errorf("PM-First picked GPU %d, want {0,1,2}", g)
		}
	}
}

func TestPMFirstSkipsBusyGPUs(t *testing.T) {
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1 + float64(g)*0.01
	}
	p := NewPMFirst(newFake(uniformScores(scores, 1)))
	c := topo16()
	c.Allocate(99, []cluster.GPUID{0, 1}) // best two busy
	out := p.PlaceRound(c, []*sim.Job{mkJob(0, 2, 0)}, 0)
	for _, g := range out[0] {
		if g != 2 && g != 3 {
			t.Errorf("picked busy-adjacent GPU %d, want {2,3}", g)
		}
	}
}

func TestPMFirstClassPriority(t *testing.T) {
	// Two jobs in scheduling order [B, A]; A must pick first and get the
	// better GPUs (placement priority, Fig. 4).
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1 + float64(g)*0.01
	}
	f := newFake(uniformScores(scores, 3))
	p := NewPMFirst(f)
	c := topo16()
	jobs := []*sim.Job{mkJob(0, 2, vprof.ClassB), mkJob(1, 2, vprof.ClassA)}
	out := p.PlaceRound(c, jobs, 0)
	maxA, maxB := 0.0, 0.0
	for _, g := range out[1] {
		if s := f.Score(vprof.ClassA, int(g)); s > maxA {
			maxA = s
		}
	}
	for _, g := range out[0] {
		if s := f.Score(vprof.ClassB, int(g)); s > maxB {
			maxB = s
		}
	}
	if maxA >= maxB {
		t.Errorf("Class A max score %v should beat Class B's %v", maxA, maxB)
	}
}

func TestPMFirstPerClassScores(t *testing.T) {
	// Class 0 prefers GPU 5; class 1 prefers GPU 10.
	s0 := make([]float64, 16)
	s1 := make([]float64, 16)
	for g := range s0 {
		s0[g], s1[g] = 2, 2
	}
	s0[5], s1[10] = 0.5, 0.5
	p := NewPMFirst(newFake([][]float64{s0, s1}))
	c := topo16()
	out := p.PlaceRound(c, []*sim.Job{mkJob(0, 1, 0), mkJob(1, 1, 1)}, 0)
	if out[0][0] != 5 {
		t.Errorf("class 0 got GPU %d, want 5", out[0][0])
	}
	if out[1][0] != 10 {
		t.Errorf("class 1 got GPU %d, want 10", out[1][0])
	}
}

func TestPMFirstLeavesClusterFree(t *testing.T) {
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1
	}
	p := NewPMFirst(newFake(uniformScores(scores, 1)))
	c := topo16()
	p.PlaceRound(c, []*sim.Job{mkJob(0, 4, 0), mkJob(1, 4, 0)}, 0)
	if c.NumFree() != 16 {
		t.Errorf("placer leaked reservations: %d free", c.NumFree())
	}
}

// TestPlaceRoundClassPriorityStable: the two-pass loop walks the prefix
// class A first while keeping the scheduling order within a class. With
// every GPU scoring the same except an ascending ladder, each job takes
// the best GPU left, so the GPU ranks reveal the walk order.
func TestPlaceRoundClassPriorityStable(t *testing.T) {
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1 + float64(g)*0.01
	}
	p := NewPMFirst(newFake(uniformScores(scores, 2)))
	jobs := []*sim.Job{
		mkJob(0, 1, vprof.ClassB),
		mkJob(1, 1, vprof.ClassA),
		mkJob(2, 1, vprof.ClassB),
		mkJob(3, 1, vprof.ClassA),
	}
	out := p.PlaceRound(topo16(), jobs, 0)
	// Walk order 1, 3, 0, 2 takes GPUs 0, 1, 2, 3.
	for rank, id := range []int{1, 3, 0, 2} {
		if got := out[id]; len(got) != 1 || int(got[0]) != rank {
			t.Errorf("job %d got %v, want GPU %d (walk order 1, 3, 0, 2)", id, got, rank)
		}
	}
	for i, j := range jobs {
		if j.Spec.ID != i {
			t.Fatal("PlaceRound reordered the caller's need slice")
		}
	}
}

// palScenario builds the §III-C1 example: node 0 holds a free 0.90-score
// GPU, node 1 a free 0.94-score GPU, node 2 two free 2.55-score GPUs, and
// everything else is busy.
func palScenario(t *testing.T) (*cluster.Cluster, *fakeBinned) {
	t.Helper()
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1.06
	}
	scores[0] = 0.90 // node 0
	scores[4] = 0.94 // node 1
	scores[8] = 2.55 // node 2
	scores[9] = 2.55 // node 2
	c := topo16()
	busy := []cluster.GPUID{1, 2, 3, 5, 6, 7, 10, 11, 12, 13, 14, 15}
	c.Allocate(99, busy)
	return c, newFake(uniformScores(scores, 1))
}

func TestPALPrefersSpreadOverBadBin(t *testing.T) {
	// With L_across = 1.5: across at V=0.94 (product 1.41) beats the only
	// packed option (node 2 at 2.55). PAL must allocate {0, 4} across
	// nodes, exactly the paper's "prefers a distributed allocation over
	// bin 4" behavior.
	c, f := palScenario(t)
	p := NewPAL(f, 1.5, nil)
	out := p.PlaceRound(c, []*sim.Job{mkJob(0, 2, 0)}, 0)
	got := map[cluster.GPUID]bool{}
	for _, g := range out[0] {
		got[g] = true
	}
	if !got[0] || !got[4] {
		t.Errorf("PAL allocation = %v, want {0, 4}", out[0])
	}
}

func TestPALPrefersPackedWhenLocalityExpensive(t *testing.T) {
	// With L_across = 3.0 the packed 2.55 option (product 2.55) beats the
	// spread at 0.94*3 = 2.82, so PAL packs on node 2.
	c, f := palScenario(t)
	p := NewPAL(f, 3.0, nil)
	out := p.PlaceRound(c, []*sim.Job{mkJob(0, 2, 0)}, 0)
	got := map[cluster.GPUID]bool{}
	for _, g := range out[0] {
		got[g] = true
	}
	if !got[8] || !got[9] {
		t.Errorf("PAL allocation = %v, want {8, 9}", out[0])
	}
}

func TestPALPacksAtGoodBins(t *testing.T) {
	// All of node 1 free at score 0.95, scattered 0.90 GPUs elsewhere:
	// a 4-GPU job should pack node 1 rather than spread over the
	// slightly-better singles (0.95 < 1.5*0.90).
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1.2
	}
	scores[4], scores[5], scores[6], scores[7] = 0.95, 0.95, 0.95, 0.95
	scores[0], scores[8], scores[12] = 0.90, 0.90, 0.90
	c := topo16()
	p := NewPAL(newFake(uniformScores(scores, 1)), 1.5, nil)
	out := p.PlaceRound(c, []*sim.Job{mkJob(0, 4, 0)}, 0)
	if c.NodesSpanned(out[0]) != 1 {
		t.Errorf("PAL spread a packable job: %v", out[0])
	}
	for _, g := range out[0] {
		if c.NodeOf(g) != 1 {
			t.Errorf("packed on node %d, want 1", c.NodeOf(g))
		}
	}
}

func TestPALSingleGPUEqualsPMFirst(t *testing.T) {
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1 + float64(g)*0.01
	}
	f := newFake(uniformScores(scores, 1))
	pal := NewPAL(f, 1.5, nil)
	pmf := NewPMFirst(f)
	cPal, cPmf := topo16(), topo16()
	a := pal.PlaceRound(cPal, []*sim.Job{mkJob(0, 1, 0)}, 0)
	b := pmf.PlaceRound(cPmf, []*sim.Job{mkJob(0, 1, 0)}, 0)
	if a[0][0] != b[0][0] {
		t.Errorf("single-GPU PAL %v != PM-First %v", a[0], b[0])
	}
}

func TestPALLargeJobUsesPMFirst(t *testing.T) {
	// Demand > GPUs/node: identical selection to PM-First.
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1 + float64((g*7)%16)*0.01
	}
	f := newFake(uniformScores(scores, 1))
	pal := NewPAL(f, 1.5, nil)
	pmf := NewPMFirst(f)
	a := pal.PlaceRound(topo16(), []*sim.Job{mkJob(0, 6, 0)}, 0)
	b := pmf.PlaceRound(topo16(), []*sim.Job{mkJob(0, 6, 0)}, 0)
	gotA := map[cluster.GPUID]bool{}
	for _, g := range a[0] {
		gotA[g] = true
	}
	for _, g := range b[0] {
		if !gotA[g] {
			t.Errorf("PAL large-job selection differs from PM-First: %v vs %v", a[0], b[0])
		}
	}
}

func TestPALNoLocalityPenaltyDegeneratesToPMFirst(t *testing.T) {
	// With L_across = 1.0 the traversal interleaves within/across per bin
	// and the chosen max-V must equal PM-First's max-V.
	scores := make([]float64, 16)
	vals := []float64{0.9, 1.0, 1.1, 1.3}
	for g := range scores {
		scores[g] = vals[(g*5)%4]
	}
	f := newFake(uniformScores(scores, 1))
	pal := NewPAL(f, 1.0, nil)
	pmf := NewPMFirst(f)
	a := pal.PlaceRound(topo16(), []*sim.Job{mkJob(0, 3, 0)}, 0)
	b := pmf.PlaceRound(topo16(), []*sim.Job{mkJob(0, 3, 0)}, 0)
	maxOf := func(gpus []cluster.GPUID) float64 {
		m := 0.0
		for _, g := range gpus {
			if s := f.Score(0, int(g)); s > m {
				m = s
			}
		}
		return m
	}
	if maxOf(a[0]) != maxOf(b[0]) {
		t.Errorf("PAL max-V %v != PM-First max-V %v at L=1", maxOf(a[0]), maxOf(b[0]))
	}
}

func TestPALPerModelPenalty(t *testing.T) {
	// pointnet's low penalty should let PAL spread it; bert's high
	// penalty should force packing, in a scenario where the tradeoff
	// flips between the two penalties.
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 2.0 // packed option everywhere: score 2.0
	}
	scores[0], scores[4] = 1.0, 1.0 // two great GPUs on different nodes
	f := newFake(uniformScores(scores, 3))
	modelL := map[string]float64{"pointnet": 1.05, "bert": 2.5}
	p := NewPAL(f, 1.7, modelL)

	spread := mkJob(0, 2, vprof.ClassC)
	spread.Spec.Model = "pointnet"
	out := p.PlaceRound(topo16(), []*sim.Job{spread}, 0)
	if cl := topo16(); cl.NodesSpanned(out[0]) != 2 {
		t.Errorf("pointnet (L=1.05) should spread to the good GPUs: %v", out[0])
	}

	packed := mkJob(1, 2, vprof.ClassB)
	packed.Spec.Model = "bert"
	out2 := p.PlaceRound(topo16(), []*sim.Job{packed}, 0)
	if cl := topo16(); cl.NodesSpanned(out2[1]) != 1 {
		t.Errorf("bert (L=2.5) should pack: %v", out2[1])
	}
}

func TestPALMatrixAccessor(t *testing.T) {
	f := newFake(uniformScores([]float64{0.9, 1.0, 1.1, 2.5,
		0.9, 1.0, 1.1, 2.5, 0.9, 1.0, 1.1, 2.5, 0.9, 1.0, 1.1, 2.5}, 1))
	p := NewPAL(f, 1.5, nil)
	m := p.Matrix(0)
	if m == nil || len(m.Bins) != 4 {
		t.Fatalf("Matrix(0) = %+v", m)
	}
	if p.Matrix(vprof.Class(99)) != nil {
		t.Error("out-of-range class should be nil")
	}
}

// TestCorePlacersSatisfyDemandProperty: for random occupancy and random
// job batches, PM-First and PAL always hand out exactly-demand, distinct,
// free GPUs, and leave the cluster state untouched.
func TestCorePlacersSatisfyDemandProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		scores := make([]float64, 16)
		for g := range scores {
			scores[g] = 0.9 + r.Float64()
		}
		f := newFake(uniformScores(scores, 3))
		placers := []sim.Placer{NewPMFirst(f), NewPAL(f, 1.0+r.Float64()*2, nil)}
		for _, p := range placers {
			c := topo16()
			busyCount := r.Intn(8)
			for i := 0; i < busyCount; i++ {
				g := cluster.GPUID(r.Intn(16))
				if c.IsFree(g) {
					c.Allocate(1000+i, []cluster.GPUID{g})
				}
			}
			freeBefore := c.NumFree()
			// A batch of jobs that fits the free capacity.
			var jobs []*sim.Job
			left := freeBefore
			for id := 0; left > 0 && id < 5; id++ {
				d := 1 + r.Intn(4)
				if d > left {
					d = left
				}
				jobs = append(jobs, mkJob(id, d, vprof.Class(r.Intn(3))))
				left -= d
			}
			out := p.PlaceRound(c, jobs, 0)
			if c.NumFree() != freeBefore {
				return false
			}
			seen := map[cluster.GPUID]bool{}
			for _, j := range jobs {
				alloc, ok := out[j.Spec.ID]
				if !ok || len(alloc) != j.Spec.Demand {
					return false
				}
				for _, g := range alloc {
					if seen[g] || !c.IsFree(g) {
						return false
					}
					seen[g] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPALMinimizesLVProductProperty: for a 2-GPU job, the allocation PAL
// returns must achieve the minimum LV-product over all feasible
// allocations (packed pairs and the best spread pair).
func TestPALMinimizesLVProductProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		scores := make([]float64, 16)
		for g := range scores {
			scores[g] = 0.85 + r.Float64()*1.5
		}
		f := newFake(uniformScores(scores, 1))
		lacross := 1.0 + r.Float64()*2
		c := topo16()
		for g := 0; g < 16; g++ {
			if r.Float64() < 0.5 && c.NumFree() > 2 {
				c.Allocate(100+g, []cluster.GPUID{cluster.GPUID(g)})
			}
		}
		p := NewPAL(f, lacross, nil)
		out := p.PlaceRound(c, []*sim.Job{mkJob(0, 2, 0)}, 0)
		alloc := out[0]

		product := func(gpus []cluster.GPUID) float64 {
			maxV := 0.0
			for _, g := range gpus {
				if s := f.Score(0, int(g)); s > maxV {
					maxV = s
				}
			}
			l := 1.0
			if c.NodesSpanned(gpus) > 1 {
				l = lacross
			}
			return l * maxV
		}
		got := product(alloc)

		// Brute force over all free pairs.
		free := c.FreeGPUs()
		best := got
		for i := 0; i < len(free); i++ {
			for j := i + 1; j < len(free); j++ {
				if pr := product([]cluster.GPUID{free[i], free[j]}); pr < best {
					best = pr
				}
			}
		}
		return got <= best+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestOrderByClassIsStableSort: the counting pass groups a prefix
// exactly as a stable sort by class would, over prefix lengths and
// class ranges that take both the counting and the sorting branch.
func TestOrderByClassIsStableSort(t *testing.T) {
	r := rng.New(17)
	var h hysteresis
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(30)
		need := make([]*sim.Job, n)
		base, width := r.Intn(5)-2, 1+r.Intn(6)
		for i := range need {
			need[i] = mkJob(i, 1, vprof.Class(base+r.Intn(width)))
		}
		want := slices.Clone(need)
		slices.SortStableFunc(want, func(a, b *sim.Job) int { return cmp.Compare(a.Spec.Class, b.Spec.Class) })
		h.orderByClass(need)
		if !slices.Equal(h.ordered, want) {
			t.Fatalf("trial %d: class order %v, want %v", trial, jobIDs(h.ordered), jobIDs(want))
		}
	}
}

func jobIDs(jobs []*sim.Job) []int {
	ids := make([]int, len(jobs))
	for i, j := range jobs {
		ids[i] = j.Spec.ID
	}
	return ids
}
