package sim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// flatProfile builds a profile where every GPU scores exactly 1.0 except
// the listed (class, gpu) overrides, applied before normalization on a
// cluster large enough that the median stays 1.0.
func flatProfile(t *testing.T, n int, overrides map[int]float64) *vprof.Profile {
	t.Helper()
	perClass := make([][]float64, vprof.NumClasses)
	for c := range perClass {
		s := make([]float64, n)
		for g := range s {
			s[g] = 1.0
		}
		perClass[c] = s
	}
	for g, v := range overrides {
		for c := range perClass {
			perClass[c][g] = v
		}
	}
	p, err := vprof.NewProfile("flat", perClass)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// firstFree is a trivial placer: hand each job the lowest-ID free GPUs.
type firstFree struct{ sticky bool }

func (f firstFree) Name() string { return "first-free" }
func (f firstFree) Sticky() bool { return f.sticky }
func (f firstFree) PlaceRound(c *cluster.Cluster, need []*Job, _ float64) map[int][]cluster.GPUID {
	out := make(map[int][]cluster.GPUID, len(need))
	free := c.FreeGPUs()
	idx := 0
	for _, j := range need {
		out[j.Spec.ID] = append([]cluster.GPUID(nil), free[idx:idx+j.Spec.Demand]...)
		idx += j.Spec.Demand
	}
	return out
}

// arrivalSched is a minimal FIFO used to avoid importing sched (cycle-free
// but keeps this package self-contained).
type arrivalSched struct{}

func (arrivalSched) Name() string { return "test-fifo" }
func (arrivalSched) Order(jobs []*Job, _ float64) []*Job {
	out := append([]*Job(nil), jobs...)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Spec.Arrival != out[b].Spec.Arrival {
			return out[a].Spec.Arrival < out[b].Spec.Arrival
		}
		return out[a].Spec.ID < out[b].Spec.ID
	})
	return out
}

func topo(nodes int) cluster.Topology {
	return cluster.Topology{NumNodes: nodes, GPUsPerNode: 4}
}

func baseConfig(t *testing.T, jobs []trace.JobSpec) Config {
	t.Helper()
	return Config{
		Topology:    topo(2),
		Trace:       &trace.Trace{Name: "test", Jobs: jobs},
		Sched:       arrivalSched{},
		Placer:      firstFree{},
		TrueProfile: flatProfile(t, 8, nil),
		Lacross:     1.0,
		RoundSec:    300,
	}
}

func TestSingleJobCompletes(t *testing.T) {
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 1, Work: 450},
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if !j.Done {
		t.Fatal("job did not finish")
	}
	// 450 s of work on score-1.0 GPUs: finishes mid-second-round at 450.
	if math.Abs(j.Finish-450) > 1e-6 {
		t.Errorf("finish = %v, want 450", j.Finish)
	}
	if math.Abs(j.JCT()-450) > 1e-6 {
		t.Errorf("JCT = %v", j.JCT())
	}
	if j.Wait() != 0 {
		t.Errorf("wait = %v, want 0", j.Wait())
	}
}

func TestSlowGPUStretchesJob(t *testing.T) {
	// GPU 0 scores 2.0; the job runs only there (demand 8 forces use of
	// all GPUs; max V = 2 doubles the time). Work 600 -> 1200 s.
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 8, Work: 600},
	})
	cfg.TrueProfile = flatProfile(t, 8, map[int]float64{0: 2.0})
	cfg.Lacross = 1.0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].Finish; math.Abs(got-1200) > 1e-6 {
		t.Errorf("finish = %v, want 1200 (2x slowdown)", got)
	}
}

func TestLocalityPenaltyApplied(t *testing.T) {
	// Demand 8 spans both nodes; Lacross 1.5 stretches 600 -> 900.
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 8, Work: 600},
	})
	cfg.Lacross = 1.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].Finish; math.Abs(got-900) > 1e-6 {
		t.Errorf("finish = %v, want 900 (1.5x locality)", got)
	}
}

func TestPackedJobAvoidsLocalityPenalty(t *testing.T) {
	// Demand 4 fits one node with the first-free placer: no penalty.
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 4, Work: 600},
	})
	cfg.Lacross = 1.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].Finish; math.Abs(got-600) > 1e-6 {
		t.Errorf("finish = %v, want 600 (packed)", got)
	}
}

func TestModelLacrossOverride(t *testing.T) {
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 8, Work: 600, Model: "bert"},
	})
	cfg.Lacross = 1.5
	cfg.ModelLacross = map[string]float64{"bert": 2.0}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].Finish; math.Abs(got-1200) > 1e-6 {
		t.Errorf("finish = %v, want 1200 (model penalty 2.0)", got)
	}
}

func TestQueueingWhenFull(t *testing.T) {
	// Two 8-GPU jobs: the second must wait for the first.
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 8, Work: 300},
		{ID: 1, Arrival: 0, Demand: 8, Work: 300},
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j0, j1 := res.Jobs[0], res.Jobs[1]
	if j0.Finish != 300 {
		t.Errorf("job 0 finish = %v", j0.Finish)
	}
	if j1.FirstRun != 300 {
		t.Errorf("job 1 first run = %v, want 300", j1.FirstRun)
	}
	if j1.Finish != 600 {
		t.Errorf("job 1 finish = %v, want 600", j1.Finish)
	}
	if j1.Wait() != 300 {
		t.Errorf("job 1 wait = %v", j1.Wait())
	}
}

func TestStrictPrefixNoBackfill(t *testing.T) {
	// Job 0 occupies 4 GPUs; job 1 needs 8 (blocked); job 2 needs 1 and
	// arrives later: it must NOT leapfrog job 1 under the strict
	// mark-at-cluster-size rule.
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 4, Work: 600},
		{ID: 1, Arrival: 10, Demand: 8, Work: 300},
		{ID: 2, Arrival: 20, Demand: 1, Work: 300},
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, j2 := res.Jobs[1], res.Jobs[2]
	if j1.FirstRun >= j2.FirstRun {
		t.Errorf("job 2 (first run %v) backfilled around blocked job 1 (%v)",
			j2.FirstRun, j1.FirstRun)
	}
}

// prioritySched gives lower Remaining higher priority (SRTF-like) to
// exercise preemption.
type prioritySched struct{}

func (prioritySched) Name() string { return "test-srtf" }
func (prioritySched) Order(jobs []*Job, _ float64) []*Job {
	out := append([]*Job(nil), jobs...)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Remaining != out[b].Remaining {
			return out[a].Remaining < out[b].Remaining
		}
		return out[a].Spec.ID < out[b].Spec.ID
	})
	return out
}

func TestPreemption(t *testing.T) {
	// A long 8-GPU job is preempted by a short one arriving later.
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 8, Work: 3000},
		{ID: 1, Arrival: 300, Demand: 8, Work: 300},
	})
	cfg.Sched = prioritySched{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j0, j1 := res.Jobs[0], res.Jobs[1]
	if j0.Preemptions == 0 {
		t.Error("long job was never preempted")
	}
	if j1.Finish >= j0.Finish {
		t.Error("short job should finish first under SRTF")
	}
	// Work conservation: the long job's total service equals its work.
	if math.Abs(j0.Attained/8-3000) > 1e-6 {
		t.Errorf("long job attained %v GPU-seconds, want %v", j0.Attained, 8*3000.0)
	}
}

func TestStickyKeepsAllocation(t *testing.T) {
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 2, Work: 900},
	})
	cfg.Placer = firstFree{sticky: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Migrations != 0 {
		t.Errorf("sticky job migrated %d times", res.Jobs[0].Migrations)
	}
}

// rotatingPlacer forces a different allocation every round to exercise
// migration accounting.
type rotatingPlacer struct{ round int }

func (r *rotatingPlacer) Name() string { return "rotating" }
func (r *rotatingPlacer) Sticky() bool { return false }
func (r *rotatingPlacer) PlaceRound(c *cluster.Cluster, need []*Job, _ float64) map[int][]cluster.GPUID {
	r.round++
	out := make(map[int][]cluster.GPUID, len(need))
	free := c.FreeGPUs()
	idx := r.round % 2 // alternate between prefix and suffix of the free list
	for _, j := range need {
		var alloc []cluster.GPUID
		if idx == 0 {
			alloc = append(alloc, free[:j.Spec.Demand]...)
		} else {
			alloc = append(alloc, free[len(free)-j.Spec.Demand:]...)
		}
		out[j.Spec.ID] = alloc
	}
	return out
}

func TestMigrationCountingAndPenalty(t *testing.T) {
	jobs := []trace.JobSpec{{ID: 0, Arrival: 0, Demand: 2, Work: 1500}}
	cfg := baseConfig(t, jobs)
	cfg.Placer = &rotatingPlacer{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Migrations == 0 {
		t.Fatal("rotating placer produced no migrations")
	}
	noPenaltyFinish := res.Jobs[0].Finish

	cfg2 := baseConfig(t, jobs)
	cfg2.Placer = &rotatingPlacer{}
	cfg2.MigrationPenaltySec = 60
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Jobs[0].Finish <= noPenaltyFinish {
		t.Errorf("migration penalty did not slow the job: %v vs %v",
			res2.Jobs[0].Finish, noPenaltyFinish)
	}
}

func TestAdmissionRejectsOversizedJob(t *testing.T) {
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 99, Work: 300}, // bigger than the cluster
		{ID: 1, Arrival: 10, Demand: 1, Work: 300},
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Jobs[1].Done {
		t.Error("small job behind the rejected one never ran")
	}
}

func TestMeasureWindow(t *testing.T) {
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 1, Work: 100},
		{ID: 1, Arrival: 0, Demand: 1, Work: 100},
		{ID: 2, Arrival: 0, Demand: 1, Work: 100},
	})
	cfg.MeasureFirst, cfg.MeasureLast = 1, 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measured) != 2 {
		t.Fatalf("measured %d jobs, want 2", len(res.Measured))
	}
	for _, j := range res.Measured {
		if j.Spec.ID == 0 {
			t.Error("job 0 outside the window was measured")
		}
	}
}

func TestUtilizationAndMakespan(t *testing.T) {
	// One 8-GPU job for 600 s: utilization 1.0, makespan 600.
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 8, Work: 600},
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-600) > 1e-6 {
		t.Errorf("makespan = %v", res.Makespan)
	}
	if math.Abs(res.Utilization-1.0) > 1e-9 {
		t.Errorf("utilization = %v, want 1.0", res.Utilization)
	}
}

func TestIdleGapSkipsToNextArrival(t *testing.T) {
	// A huge gap between jobs must not blow MaxRounds.
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 1, Work: 100},
		{ID: 1, Arrival: 1e6, Demand: 1, Work: 100},
	})
	cfg.MaxRounds = 10000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Jobs[1].Done {
		t.Error("late job never ran")
	}
	if res.Jobs[1].Wait() > 300 {
		t.Errorf("late job waited %v, want < one round", res.Jobs[1].Wait())
	}
}

func TestDeterminism(t *testing.T) {
	jobs := make([]trace.JobSpec, 20)
	for i := range jobs {
		jobs[i] = trace.JobSpec{
			ID: i, Arrival: float64(i * 100), Demand: 1 + i%4, Work: 500 + float64(i*37),
		}
	}
	run := func() []float64 {
		cfg := baseConfig(t, jobs)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.JCTs()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at job %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := baseConfig(t, []trace.JobSpec{{ID: 0, Arrival: 0, Demand: 1, Work: 100}})

	noTrace := good
	noTrace.Trace = &trace.Trace{}
	if _, err := Run(noTrace); err == nil {
		t.Error("empty trace accepted")
	}

	noSched := good
	noSched.Sched = nil
	if _, err := Run(noSched); err == nil {
		t.Error("nil scheduler accepted")
	}

	noProfile := good
	noProfile.TrueProfile = nil
	if _, err := Run(noProfile); err == nil {
		t.Error("nil profile accepted")
	}

	smallProfile := good
	smallProfile.TrueProfile = flatProfile(t, 4, nil) // cluster has 8
	if _, err := Run(smallProfile); err == nil {
		t.Error("undersized profile accepted")
	}

	badTopo := good
	badTopo.Topology = cluster.Topology{}
	if _, err := Run(badTopo); err == nil {
		t.Error("invalid topology accepted")
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 1, Work: 1e12},
		{ID: 1, Arrival: 100, Demand: 1, Work: 60},
	})
	cfg.MaxRounds = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("truncated run must not error: %v", err)
	}
	if !res.Truncated {
		t.Error("MaxRounds exceeded without Truncated flag")
	}
	if res.Unfinished != 1 {
		t.Errorf("Unfinished = %d, want 1 (the 1e12-second job)", res.Unfinished)
	}
	if res.Rounds < cfg.MaxRounds {
		t.Errorf("Rounds = %d, want >= MaxRounds", res.Rounds)
	}
	if !res.Jobs[1].Done {
		t.Error("short job should have completed before truncation")
	}

	// A completed run must not be flagged.
	ok := baseConfig(t, []trace.JobSpec{{ID: 0, Arrival: 0, Demand: 1, Work: 100}})
	full, err := Run(ok)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || full.Unfinished != 0 {
		t.Errorf("completed run flagged: truncated=%v unfinished=%d", full.Truncated, full.Unfinished)
	}
}

func TestWorkConservationManyJobs(t *testing.T) {
	// Total attained GPU-seconds must equal total demanded work when all
	// GPUs score 1.0 and no locality penalty applies.
	jobs := make([]trace.JobSpec, 10)
	var want float64
	for i := range jobs {
		jobs[i] = trace.JobSpec{ID: i, Arrival: float64(i * 50), Demand: 1 + i%3, Work: 400}
		want += 400 * float64(1+i%3)
	}
	cfg := baseConfig(t, jobs)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for _, j := range res.Jobs {
		got += j.Attained
	}
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("attained %v GPU-seconds, want %v", got, want)
	}
}

func TestMultiGPUJCTs(t *testing.T) {
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 1, Work: 100},
		{ID: 1, Arrival: 0, Demand: 2, Work: 100},
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.MultiGPUJCTs()); got != 1 {
		t.Errorf("multi-GPU JCTs = %d, want 1", got)
	}
}

func TestAdmitAllAndFitsNames(t *testing.T) {
	if (AdmitAll{}).Name() == "" || (AdmitFits{}).Name() == "" {
		t.Error("admission policies need names")
	}
	c := cluster.New(topo(1))
	big := &Job{Spec: trace.JobSpec{Demand: 100}}
	if (AdmitFits{}).Admit(big, c) {
		t.Error("AdmitFits accepted an impossible job")
	}
	if !(AdmitAll{}).Admit(big, c) {
		t.Error("AdmitAll rejected a job")
	}
}

func TestRackLocalityLevels(t *testing.T) {
	// 4 nodes, 2 nodes per rack. An 8-GPU job confined to rack 0 pays
	// Lrack; the same demand forced across racks pays Lacross.
	topoRack := cluster.Topology{NumNodes: 4, GPUsPerNode: 4, NodesPerRack: 2}
	cfg := Config{
		Topology:    topoRack,
		Trace:       &trace.Trace{Name: "rack", Jobs: []trace.JobSpec{{ID: 0, Arrival: 0, Demand: 8, Work: 600}}},
		Sched:       arrivalSched{},
		Placer:      firstFree{}, // GPUs 0-7 = nodes 0,1 = rack 0
		TrueProfile: flatProfile(t, 16, nil),
		Lacross:     2.0,
		Lrack:       1.25,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].Finish; math.Abs(got-750) > 1e-6 {
		t.Errorf("rack-confined finish = %v, want 750 (1.25x)", got)
	}

	// Demand 16 spans both racks: full Lacross.
	cfg.Trace = &trace.Trace{Name: "rack2", Jobs: []trace.JobSpec{{ID: 0, Arrival: 0, Demand: 16, Work: 600}}}
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].Finish; math.Abs(got-1200) > 1e-6 {
		t.Errorf("rack-spanning finish = %v, want 1200 (2x)", got)
	}
}

// recordingObserver captures observations for verification.
type recordingObserver struct {
	calls int
	last  []float64
}

func (r *recordingObserver) ObserveRound(j *Job, perGPU []float64, _ float64) {
	r.calls++
	r.last = append(r.last[:0], perGPU...)
}

func TestObserverReceivesPerGPUScores(t *testing.T) {
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 2, Work: 500},
	})
	cfg.TrueProfile = flatProfile(t, 8, map[int]float64{1: 2.0})
	obs := &recordingObserver{}
	cfg.Observer = obs
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if obs.calls == 0 {
		t.Fatal("observer never called")
	}
	if len(obs.last) != 2 {
		t.Fatalf("perGPU length %d, want 2", len(obs.last))
	}
	// firstFree allocates GPUs 0 and 1; GPU 1 is the 2x one. The profile
	// is renormalized so check the ratio rather than absolutes.
	if obs.last[1]/obs.last[0] < 1.8 {
		t.Errorf("per-GPU scores = %v, want second ~2x the first", obs.last)
	}
}

// TestJobLifecycleState: admission, preemption and completion are
// readable off the jobs themselves. A job admission control refuses is
// closed out Done with a zero-length schedule; the long job starts on
// arrival, is preempted by the short one, resumes and finishes last.
func TestJobLifecycleState(t *testing.T) {
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 8, Work: 3000},
		{ID: 1, Arrival: 300, Demand: 8, Work: 300},
		{ID: 2, Arrival: 400, Demand: 99, Work: 100}, // rejected
	})
	cfg.Sched = prioritySched{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rej := res.Jobs[2]
	if !rej.Done || rej.Started || rej.FirstRun != rej.Spec.Arrival || rej.Finish != rej.Spec.Arrival {
		t.Errorf("rejected job = %+v, want Done, never started, FirstRun = Finish = arrival", *rej)
	}
	j0, j1 := res.Jobs[0], res.Jobs[1]
	if !j0.Started || j0.FirstRun != j0.Spec.Arrival {
		t.Errorf("job 0 started=%v first run %v, want started at its arrival", j0.Started, j0.FirstRun)
	}
	if !j1.Started || j1.FirstRun != j1.Spec.Arrival {
		t.Errorf("job 1 started=%v first run %v, want started at its arrival", j1.Started, j1.FirstRun)
	}
	if j0.Preemptions < 1 {
		t.Errorf("job 0 preemptions = %d, want >= 1", j0.Preemptions)
	}
	if !j0.Done || !j1.Done || j0.Finish <= j1.Finish {
		t.Errorf("finishes: job 0 done=%v at %v, job 1 done=%v at %v; want both done, job 0 last",
			j0.Done, j0.Finish, j1.Done, j1.Finish)
	}
}

func TestFirstRunDelayVsWait(t *testing.T) {
	// Job 1 runs immediately under SRTF-like priority, then the long job
	// 0 resumes; job 0's Wait (total queued) exceeds its first-run delay.
	cfg := baseConfig(t, []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 8, Work: 3000},
		{ID: 1, Arrival: 300, Demand: 8, Work: 900},
	})
	cfg.Sched = prioritySched{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j0 := res.Jobs[0]
	if d := j0.FirstRun - j0.Spec.Arrival; d != 0 {
		t.Errorf("job 0 first-run delay = %v, want 0", d)
	}
	if j0.Wait() <= 0 {
		t.Errorf("job 0 total wait = %v, want > 0 (suspension counted)", j0.Wait())
	}
}
