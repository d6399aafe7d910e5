package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/vprof"
)

func orderFixture() (*scoreOrder, *cluster.Cluster, *fakeBinned) {
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1 + float64(g%4)*0.1 // scores 1.0, 1.1, 1.2, 1.3 per node position
	}
	f := newFake(uniformScores(scores, 1))
	c := topo16()
	return newScoreOrder(f, 1, 16, 4), c, f
}

// roundOver begins a reservation over the cluster's free state.
func roundOver(o *scoreOrder, c *cluster.Cluster) *reservation {
	var r reservation
	r.start(c.View(), o)
	return &r
}

func TestScoreOrderAscending(t *testing.T) {
	o, _, f := orderFixture()
	prev := -1.0
	for _, g := range o.byClass[0] {
		s := f.Score(0, int(g))
		if s < prev {
			t.Fatalf("order not ascending at gpu %d", g)
		}
		prev = s
	}
	if len(o.byClass[0]) != 16 {
		t.Fatalf("order covers %d GPUs", len(o.byClass[0]))
	}
}

func TestScoreOrderNodeLists(t *testing.T) {
	o, _, f := orderFixture()
	for n := 0; n < 4; n++ {
		prev := -1.0
		for _, g := range o.nodeByClass[0][n] {
			if int(g)/4 != n {
				t.Fatalf("node %d list contains gpu %d", n, g)
			}
			s := f.Score(0, int(g))
			if s < prev {
				t.Fatalf("node %d order not ascending", n)
			}
			prev = s
		}
	}
}

func TestTakeBestSkipsBusy(t *testing.T) {
	o, c, f := orderFixture()
	// Occupy all the score-1.0 GPUs (positions 0, 4, 8, 12).
	c.Allocate(1, []cluster.GPUID{0, 4, 8, 12})
	got, ok := roundOver(o, c).takeBest(nil, 0, 2)
	if !ok || len(got) != 2 {
		t.Fatalf("takeBest = %v, %v", got, ok)
	}
	for _, g := range got {
		if f.Score(0, int(g)) != 1.1 {
			t.Errorf("takeBest picked score %v, want 1.1 tier", f.Score(0, int(g)))
		}
	}
}

func TestTakeBestInsufficient(t *testing.T) {
	o, c, _ := orderFixture()
	c.Allocate(1, c.FreeGPUs()[:15])
	if got, ok := roundOver(o, c).takeBest(nil, 0, 2); ok {
		t.Errorf("takeBest with 1 free GPU for demand 2 = %v, want not ok", got)
	}
}

func TestTakeBestUnderStopsAtThreshold(t *testing.T) {
	o, c, f := orderFixture()
	// Filter at 1.05: only the four 1.0-score GPUs qualify.
	got, ok := roundOver(o, c).takeBestUnder(nil, 0, 4, 1.05)
	if !ok || len(got) != 4 {
		t.Fatalf("takeBestUnder = %v", got)
	}
	for _, g := range got {
		if f.Score(0, int(g)) > 1.05 {
			t.Errorf("picked over-threshold GPU %d", g)
		}
	}
	// Demand 5 at the same threshold cannot be met.
	if got, ok := roundOver(o, c).takeBestUnder(nil, 0, 5, 1.05); ok {
		t.Errorf("threshold overrun: %v", got)
	}
}

func TestTakeNodeUnder(t *testing.T) {
	o, c, _ := orderFixture()
	// Node 0: scores 1.0-1.3; at threshold 1.15, two GPUs qualify.
	alloc, maxV, ok := roundOver(o, c).takeNodeUnder(nil, 0, 0, 2, 1.15)
	if !ok || len(alloc) != 2 {
		t.Fatalf("takeNodeUnder = %v", alloc)
	}
	if maxV != 1.1 {
		t.Errorf("maxV = %v, want 1.1", maxV)
	}
	// Demand 3 at that threshold fails.
	if alloc, _, ok := roundOver(o, c).takeNodeUnder(nil, 0, 0, 3, 1.15); ok {
		t.Errorf("over-demand succeeded: %v", alloc)
	}
}

func TestHashedTieBreakSpreadsPicks(t *testing.T) {
	// All scores equal: the in-bin order must not be 0,1,2,3,... — the
	// hash decorrelates it from GPU IDs (see newScoreOrder).
	scores := make([]float64, 64)
	for g := range scores {
		scores[g] = 1.0
	}
	f := newFake(uniformScores(scores, 1))
	o := newScoreOrder(f, 1, 64, 4)
	identity := true
	for i, g := range o.byClass[0] {
		if int(g) != i {
			identity = false
			break
		}
	}
	if identity {
		t.Error("tie order equals GPU-ID order; hash tie-break not applied")
	}
	// Still a permutation.
	seen := make([]bool, 64)
	for _, g := range o.byClass[0] {
		if seen[g] {
			t.Fatalf("gpu %d repeated", g)
		}
		seen[g] = true
	}
}

// bumpScorer is a versioned fake whose scores flip on demand.
type bumpScorer struct {
	*fakeBinned
	v       uint64
	flipped bool
}

func (b *bumpScorer) Version() uint64 { return b.v }
func (b *bumpScorer) Score(c vprof.Class, g int) float64 {
	if b.flipped && g == 0 {
		return 9.9
	}
	return b.fakeBinned.Score(c, g)
}

func TestOrderCacheRebuildsOnVersionChange(t *testing.T) {
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1 + float64(g)*0.01 // GPU 0 is best
	}
	bs := &bumpScorer{fakeBinned: newFake(uniformScores(scores, 1))}
	var cache orderCache
	o1 := cache.get(bs, 1, 16, 4)
	if o1.byClass[0][0] != 0 {
		t.Fatalf("best GPU should be 0, got %d", o1.byClass[0][0])
	}
	// Same version: cached object returned.
	if o2 := cache.get(bs, 1, 16, 4); o2 != o1 {
		t.Error("cache rebuilt without a version change")
	}
	// Flip GPU 0 to terrible and bump the version: rebuild demotes it.
	bs.flipped = true
	bs.v++
	o3 := cache.get(bs, 1, 16, 4)
	if o3 == o1 {
		t.Fatal("cache not rebuilt after version change")
	}
	if o3.byClass[0][0] == 0 {
		t.Error("rebuilt order still ranks the now-terrible GPU 0 first")
	}
}

func TestOrderCacheStaticScorerBuiltOnce(t *testing.T) {
	scores := make([]float64, 16)
	for g := range scores {
		scores[g] = 1.0
	}
	f := newFake(uniformScores(scores, 1))
	var cache orderCache
	o1 := cache.get(f, 1, 16, 4)
	o2 := cache.get(f, 1, 16, 4)
	if o1 != o2 {
		t.Error("static scorer rebuilt")
	}
}
