package sim

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Failure-injection tests: misbehaving policies must surface as
// descriptive errors from Run, never as panics or silent corruption.

// shortPlacer returns one GPU fewer than demanded.
type shortPlacer struct{}

func (shortPlacer) Name() string { return "short" }
func (shortPlacer) Sticky() bool { return false }
func (shortPlacer) PlaceRound(c *cluster.Cluster, need []*Job, _ float64) map[int][]cluster.GPUID {
	out := make(map[int][]cluster.GPUID)
	free := c.FreeGPUs()
	for _, j := range need {
		n := j.Spec.Demand - 1
		out[j.Spec.ID] = append([]cluster.GPUID(nil), free[:n]...)
	}
	return out
}

// dupPlacer hands the same GPU out twice within one allocation.
type dupPlacer struct{}

func (dupPlacer) Name() string { return "dup" }
func (dupPlacer) Sticky() bool { return false }
func (dupPlacer) PlaceRound(c *cluster.Cluster, need []*Job, _ float64) map[int][]cluster.GPUID {
	out := make(map[int][]cluster.GPUID)
	free := c.FreeGPUs()
	for _, j := range need {
		alloc := make([]cluster.GPUID, j.Spec.Demand)
		for i := range alloc {
			alloc[i] = free[0]
		}
		out[j.Spec.ID] = alloc
	}
	return out
}

// overlapPlacer gives two jobs the same GPUs.
type overlapPlacer struct{}

func (overlapPlacer) Name() string { return "overlap" }
func (overlapPlacer) Sticky() bool { return false }
func (overlapPlacer) PlaceRound(c *cluster.Cluster, need []*Job, _ float64) map[int][]cluster.GPUID {
	out := make(map[int][]cluster.GPUID)
	free := c.FreeGPUs()
	for _, j := range need {
		out[j.Spec.ID] = append([]cluster.GPUID(nil), free[:j.Spec.Demand]...)
	}
	return out
}

// rangePlacer returns out-of-range GPU IDs.
type rangePlacer struct{}

func (rangePlacer) Name() string { return "range" }
func (rangePlacer) Sticky() bool { return false }
func (rangePlacer) PlaceRound(c *cluster.Cluster, need []*Job, _ float64) map[int][]cluster.GPUID {
	out := make(map[int][]cluster.GPUID)
	for _, j := range need {
		alloc := make([]cluster.GPUID, j.Spec.Demand)
		for i := range alloc {
			alloc[i] = cluster.GPUID(10_000 + i)
		}
		out[j.Spec.ID] = alloc
	}
	return out
}

// missingPlacer omits a job from its result map.
type missingPlacer struct{}

func (missingPlacer) Name() string { return "missing" }
func (missingPlacer) Sticky() bool { return false }
func (missingPlacer) PlaceRound(*cluster.Cluster, []*Job, float64) map[int][]cluster.GPUID {
	return map[int][]cluster.GPUID{}
}

func TestBuggyPlacersSurfaceErrors(t *testing.T) {
	cases := []struct {
		placer Placer
		errHas string
	}{
		{shortPlacer{}, "GPUs, want"},
		{dupPlacer{}, "twice"},
		{rangePlacer{}, "out-of-range"},
		{missingPlacer{}, "want"},
	}
	for _, c := range cases {
		cfg := baseConfig(t, []trace.JobSpec{
			{ID: 0, Arrival: 0, Demand: 2, Work: 600},
		})
		cfg.Placer = c.placer
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: no error surfaced", c.placer.Name())
			continue
		}
		if !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: error %q does not mention %q", c.placer.Name(), err, c.errHas)
		}
	}
}

func TestOverlappingAllocationsSurfaceError(t *testing.T) {
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 2, Work: 600},
		{ID: 1, Arrival: 0, Demand: 2, Work: 600},
	})
	cfg.Placer = overlapPlacer{}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("overlapping allocations accepted")
	}
	if !strings.Contains(err.Error(), "busy GPU") {
		t.Errorf("error %q does not mention the busy GPU", err)
	}
}

// badOrderSched drops a job from its ordering.
type badOrderSched struct{}

func (badOrderSched) Name() string { return "bad-order" }
func (badOrderSched) Order(jobs []*Job, _ float64) []*Job {
	if len(jobs) > 1 {
		return jobs[:len(jobs)-1]
	}
	return jobs
}

func TestBuggySchedulerSurfacesError(t *testing.T) {
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 1, Work: 600},
		{ID: 1, Arrival: 0, Demand: 1, Work: 600},
	})
	cfg.Sched = badOrderSched{}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "returned") {
		t.Errorf("dropped-job ordering not caught: %v", err)
	}
}

// chaosPlacer is a *valid* placer that allocates uniformly random free
// GPUs, used to drive the engine through unusual-but-legal states.
type chaosPlacer struct{ r *rng.RNG }

func (p *chaosPlacer) Name() string { return "chaos" }
func (p *chaosPlacer) Sticky() bool { return p.r.Float64() < 0 } // always false, reads no state
func (p *chaosPlacer) PlaceRound(c *cluster.Cluster, need []*Job, _ float64) map[int][]cluster.GPUID {
	out := make(map[int][]cluster.GPUID, len(need))
	free := c.FreeGPUs()
	rng.Shuffle(p.r, free)
	idx := 0
	for _, j := range need {
		out[j.Spec.ID] = append([]cluster.GPUID(nil), free[idx:idx+j.Spec.Demand]...)
		idx += j.Spec.Demand
	}
	return out
}

// chaosSched orders jobs randomly each round (a legal, if terrible,
// scheduling policy).
type chaosSched struct{ r *rng.RNG }

func (chaosSched) Name() string { return "chaos-sched" }
func (s chaosSched) Order(jobs []*Job, _ float64) []*Job {
	out := append([]*Job(nil), jobs...)
	rng.Shuffle(s.r, out)
	return out
}

// TestChaosDriver runs random-but-legal policies over random traces and
// checks global invariants: everything completes, accounting balances,
// and the engine's internal cluster state stays consistent (Run calls
// CheckInvariants at the end).
func TestChaosDriver(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		r := rng.New(seed)
		n := 20 + r.Intn(60)
		jobs := make([]trace.JobSpec, n)
		arr := 0.0
		for i := range jobs {
			arr += r.Float64() * 600
			jobs[i] = trace.JobSpec{
				ID:      i,
				Arrival: arr,
				Demand:  1 + r.Intn(8),
				Work:    60 + r.Float64()*5000,
				Class:   0,
			}
		}
		cfg := baseConfig(t, jobs)
		cfg.Sched = chaosSched{r: rng.New(seed + 100)}
		cfg.Placer = &chaosPlacer{r: rng.New(seed + 200)}
		cfg.MigrationPenaltySec = 15
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var totalWork, totalAttained float64
		for _, j := range res.Jobs {
			if !j.Done {
				t.Fatalf("seed %d: job %d unfinished", seed, j.Spec.ID)
			}
			totalWork += j.Spec.Work * float64(j.Spec.Demand)
			totalAttained += j.Attained
		}
		// Attained time can exceed ideal work (slowdowns >= minScore) but
		// never undercut it times the best score (1.0 here: flat profile,
		// Lacross 1.0 in baseConfig).
		if totalAttained < totalWork-1e-6 {
			t.Errorf("seed %d: attained %v below ideal %v on a flat profile",
				seed, totalAttained, totalWork)
		}
	}
}
