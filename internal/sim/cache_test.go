package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// Tests of the engine's per-round bookkeeping shortcuts: the cached
// Equation-1 slowdown (Job.sd) and the one-pass release of a
// non-sticky round (Cluster.Reset).

// variedProfile builds a profile whose scores differ per GPU and per
// class, so a slowdown cached for the wrong allocation shows.
func variedProfile(t *testing.T, n int, seed uint64) *vprof.Profile {
	t.Helper()
	r := rng.New(seed)
	perClass := make([][]float64, vprof.NumClasses)
	for c := range perClass {
		perClass[c] = make([]float64, n)
		for g := range perClass[c] {
			perClass[c][g] = 0.8 + 0.6*r.Float64()
		}
	}
	p, err := vprof.NewProfile("varied", perClass)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// contendedTrace is a random trace that overfills a cluster of size GPUs,
// so the prefix changes, jobs queue and schedulers preempt.
func contendedTrace(seed uint64, size int) *trace.Trace {
	r := rng.New(seed)
	jobs := make([]trace.JobSpec, 30+r.Intn(30))
	arr := 0.0
	for i := range jobs {
		arr += r.Float64() * 400
		jobs[i] = trace.JobSpec{
			ID:      i,
			Model:   []string{"resnet50", "gpt2"}[r.Intn(2)],
			Class:   vprof.Class(r.Intn(vprof.NumClasses)),
			Arrival: arr,
			Demand:  1 + r.Intn(size/2),
			Work:    300 + r.Float64()*6000,
		}
	}
	return &trace.Trace{Name: "contended", Jobs: jobs}
}

// sdChecker asserts that every job's cached slowdown equals Equation 1
// evaluated on its current allocation, bit for bit: from the Observer
// hook on every naive round, and from the metrics hook on every span,
// including the bulk-advanced ones.
type sdChecker struct {
	t      *testing.T
	label  string
	e      *engine
	checks int
}

func (c *sdChecker) checkAll(when string) {
	c.t.Helper()
	c.checks++
	for _, j := range c.e.jobs {
		if want := c.e.slowdown(j); math.Float64bits(j.sd) != math.Float64bits(want) {
			c.t.Fatalf("%s, %s: job %d (alloc %v) caches slowdown %v, allocation gives %v",
				c.label, when, j.Spec.ID, j.Alloc, j.sd, want)
		}
	}
}

func (c *sdChecker) ObserveRound(_ *Job, _ []float64, now float64) {
	c.checkAll(fmt.Sprintf("round at %v", now))
}

func (c *sdChecker) ObserveRounds(o RoundObservation) {
	for i, j := range o.Running {
		if want := c.e.slowdown(j); math.Float64bits(o.Slowdowns[i]) != math.Float64bits(want) {
			c.t.Fatalf("%s, span at %v: job %d observed slowdown %v, allocation gives %v",
				c.label, o.Start, j.Spec.ID, o.Slowdowns[i], want)
		}
	}
	c.checkAll(fmt.Sprintf("span at %v", o.Start))
}

func (c *sdChecker) FinishRun(*Result) {}

// MarshalSnapshotState and UnmarshalSnapshotState let the checker ride
// through Capture and Resume as the metrics sink; it keeps no state.
func (c *sdChecker) MarshalSnapshotState() ([]byte, error) { return []byte("{}"), nil }
func (c *sdChecker) UnmarshalSnapshotState([]byte) error   { return nil }

// TestCachedSlowdownMatchesAllocation: the slowdown the engine caches
// when it places a job is the one its allocation gives in every later
// round — under random migrations and preemptions, a sticky placer, a
// migration penalty, the rack level and per-model penalties, on the
// naive and the fast paths, and across a Capture/Resume at a mid-run
// horizon.
func TestCachedSlowdownMatchesAllocation(t *testing.T) {
	racked := cluster.Topology{NumNodes: 6, GPUsPerNode: 4, NodesPerRack: 2}
	placers := []struct {
		name string
		mk   func(seed uint64) Placer
	}{
		{"chaos", func(seed uint64) Placer { return &chaosPlacer{r: rng.New(seed)} }},
		{"first-free", func(uint64) Placer { return firstFree{} }},
		{"sticky", func(uint64) Placer { return firstFree{sticky: true} }},
	}
	scheds := []struct {
		name string
		mk   func(seed uint64) Scheduler
	}{
		{"chaos", func(seed uint64) Scheduler { return chaosSched{r: rng.New(seed)} }},
		{"srtf", func(uint64) Scheduler { return prioritySched{} }},
		{"fifo", func(uint64) Scheduler { return arrivalSched{} }},
	}
	for _, pl := range placers {
		for _, sc := range scheds {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, naive := range []bool{true, false} {
					label := fmt.Sprintf("%s/%s/seed %d/naive=%v", pl.name, sc.name, seed, naive)
					mk := func() Config {
						return Config{
							Topology:            racked,
							Trace:               contendedTrace(seed, racked.Size()),
							Sched:               sc.mk(seed + 100),
							Placer:              pl.mk(seed + 200),
							TrueProfile:         variedProfile(t, racked.Size(), seed),
							Lacross:             1.7,
							Lrack:               1.2,
							ModelLacross:        map[string]float64{"gpt2": 2.5},
							MigrationPenaltySec: 45,
							DisableFastForward:  naive,
						}
					}
					checkCachedSlowdown(t, label, mk)
				}
			}
		}
	}
}

// checkCachedSlowdown runs mk's configuration straight through, then
// captures it at a mid-run horizon and resumes it, checking the cache
// throughout. The naive variant attaches the checker as an Observer
// (one call per running job per round); the fast one as a metrics sink,
// which keeps bulk advance on.
func checkCachedSlowdown(t *testing.T, label string, mk func() Config) {
	t.Helper()
	run := func(phase string, halt int, snap *Snapshot) (*engine, *Result) {
		cfg := mk()
		chk := &sdChecker{t: t, label: label + " " + phase}
		if cfg.DisableFastForward {
			cfg.Observer = chk
		} else {
			cfg.Metrics = chk
		}
		e, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		chk.e = e
		if snap != nil {
			if err := e.restore(snap); err != nil {
				t.Fatalf("%s %s: %v", label, phase, err)
			}
			chk.checkAll("after restore")
		}
		e.haltAt = halt
		res, err := e.run()
		if err != nil {
			t.Fatalf("%s %s: %v", label, phase, err)
		}
		if chk.checks == 0 {
			t.Fatalf("%s %s: the checker never ran", label, phase)
		}
		return e, res
	}
	_, full := run("straight", 0, nil)
	horizon := full.Rounds / 2
	if horizon < 2 {
		t.Fatalf("%s: run of %d rounds too short to capture mid-run", label, full.Rounds)
	}
	capture, _ := run("capture", horizon, nil)
	if !capture.halted {
		t.Fatalf("%s: capture at round %d never halted", label, horizon)
	}
	snap, err := capture.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	running := 0
	for _, js := range snap.Jobs {
		if js.Alloc != nil {
			running++
		}
	}
	if running == 0 {
		t.Fatalf("%s: snapshot at round %d holds no running job", label, horizon)
	}
	run("resume", 0, snap)
}

// resetChecker wraps a placer and asserts the cluster state PlaceRound
// sees: empty for a non-sticky placer, whose round freed every GPU in
// one Reset; for a sticky one, busy exactly on the GPUs of the running
// jobs it keeps.
type resetChecker struct {
	Placer
	t     *testing.T
	label string
	e     *engine
	calls int
}

func (w *resetChecker) PlaceRound(c *cluster.Cluster, need []*Job, now float64) map[int][]cluster.GPUID {
	w.t.Helper()
	w.calls++
	if err := c.CheckInvariants(); err != nil {
		w.t.Fatalf("%s, round at %v: %v", w.label, now, err)
	}
	if !w.Sticky() {
		if c.NumFree() != c.Size() {
			w.t.Fatalf("%s, round at %v: non-sticky round sees %d of %d GPUs free",
				w.label, now, c.NumFree(), c.Size())
		}
	} else {
		owner := make([]int, c.Size())
		for g := range owner {
			owner[g] = -1
		}
		for _, j := range w.e.active {
			for _, g := range j.Alloc {
				owner[g] = j.Spec.ID
			}
		}
		for g, want := range owner {
			if got := c.Owner(cluster.GPUID(g)); got != want {
				w.t.Fatalf("%s, round at %v: GPU %d owned by %d, running jobs give %d",
					w.label, now, g, got, want)
			}
		}
		for _, j := range need {
			if j.Alloc != nil {
				w.t.Fatalf("%s, round at %v: job %d handed to a sticky placer while running", w.label, now, j.Spec.ID)
			}
		}
	}
	return w.Placer.PlaceRound(c, need, now)
}

// TestNonStickyRoundSeesEmptyCluster: a non-sticky round releases every
// holder in one pass, so its placer sees the whole cluster free and the
// occupancy index consistent; a sticky round still releases job by job
// and leaves busy exactly the GPUs its kept jobs hold. Both stepping
// paths, with preempting schedulers.
func TestNonStickyRoundSeesEmptyCluster(t *testing.T) {
	placers := []struct {
		name string
		mk   func(seed uint64) Placer
	}{
		{"chaos", func(seed uint64) Placer { return &chaosPlacer{r: rng.New(seed)} }},
		{"first-free", func(uint64) Placer { return firstFree{} }},
		{"sticky", func(uint64) Placer { return firstFree{sticky: true} }},
	}
	for _, pl := range placers {
		for _, naive := range []bool{true, false} {
			for seed := uint64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("%s/seed %d/naive=%v", pl.name, seed, naive)
				w := &resetChecker{Placer: pl.mk(seed + 200), t: t, label: label}
				tp := topo(4)
				cfg := Config{
					Topology:           tp,
					Trace:              contendedTrace(seed, tp.Size()),
					Sched:              chaosSched{r: rng.New(seed + 100)},
					Placer:             w,
					TrueProfile:        variedProfile(t, tp.Size(), seed),
					Lacross:            1.5,
					DisableFastForward: naive,
				}
				e, err := newEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				w.e = e
				res, err := e.run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if w.calls == 0 {
					t.Fatalf("%s: placer never called", label)
				}
				preempted := 0
				for _, j := range res.Jobs {
					preempted += j.Preemptions
				}
				if preempted == 0 {
					t.Fatalf("%s: no preemption exercised", label)
				}
			}
		}
	}
}
