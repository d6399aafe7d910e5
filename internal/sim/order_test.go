package sim_test

// Differential guard for the engine's maintained scheduling order: on
// every materialized round of a churning run — bursty arrivals,
// completions, LAS demotions, SRTF's shrinking keys — the order the
// engine merged and repaired in place must equal a fresh Sched.Order
// over the active set.

import (
	"fmt"
	"testing"

	"repro/internal/place"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// checkOrder runs cfg through sim.RunCheckingOrder and fails on the
// first round whose maintained order differs from the fresh one. It
// returns the run's counters.
func checkOrder(t *testing.T, cfg sim.Config) *sim.Counters {
	t.Helper()
	ctr := &sim.Counters{}
	cfg.Counters = ctr
	checked, failed := int64(0), false
	_, err := sim.RunCheckingOrder(cfg, func(now float64, maintained, fresh []*sim.Job) {
		checked++
		if failed {
			return
		}
		if len(maintained) != len(fresh) {
			t.Errorf("t=%g: maintained order has %d jobs, active set %d", now, len(maintained), len(fresh))
			failed = true
			return
		}
		for i := range fresh {
			if maintained[i] != fresh[i] {
				t.Errorf("t=%g: position %d holds job %d, fresh order has job %d",
					now, i, maintained[i].Spec.ID, fresh[i].Spec.ID)
				failed = true
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 || checked != ctr.MaterializedRounds {
		t.Errorf("checked %d rounds, engine materialized %d", checked, ctr.MaterializedRounds)
	}
	t.Logf("%d rounds checked: %d merges, %d revalidations, %d full sorts, %d preemptions",
		checked, ctr.OrderMerges, ctr.OrderRevalidated, ctr.OrderResorts, ctr.Preemptions)
	return ctr
}

func TestMaintainedOrderMatchesFreshOrder(t *testing.T) {
	scheds := []struct {
		name string
		s    sim.Scheduler
	}{
		{"fifo", sched.FIFO{}},
		{"las", sched.LAS{}},
		// A low threshold demotes jobs en masse a few rounds in.
		{"las-1800", sched.LAS{Threshold: 1800}},
		{"srtf", sched.SRTF{}},
	}
	placers := []func(seed uint64) sim.Placer{
		func(seed uint64) sim.Placer { return place.NewPacked(true, seed) },
		func(seed uint64) sim.Placer { return place.NewRandom(false, seed) },
	}
	arrivals := []trace.ArrivalProcess{trace.ArrivalBursty, trace.ArrivalPoisson, trace.ArrivalDiurnal}
	r := rng.New(0x0DE5)
	for i := 0; i < 12; i++ {
		// Each generated spec draws its arrival process, load, seeds,
		// scheduler and placer; loads run from sparse to saturating on
		// 32 GPUs, so completions, preemptions and merges all churn.
		seed := r.Uint64()
		tr, err := trace.Synth(trace.SynthParams{
			NumJobs:       60 + r.Intn(120),
			Seed:          seed,
			Arrivals:      arrivals[r.Intn(len(arrivals))],
			JobsPerHour:   4 + 40*r.Float64(),
			MedianWorkSec: 1800 + 7200*r.Float64(),
			Demands:       []int{1, 2, 4, 8},
			DemandWeights: []float64{0.6, 0.2, 0.15, 0.05},
		})
		if err != nil {
			t.Fatal(err)
		}
		s := scheds[r.Intn(len(scheds))]
		p := placers[r.Intn(len(placers))](seed)
		t.Run(fmt.Sprintf("%d/%s/%s/%s", i, tr.Name, s.name, p.Name()), func(t *testing.T) {
			checkOrder(t, orderConfig(tr, s.s, p))
		})
	}
}

// TestMaintainedOrderFullSortFallback drives the repair past its shift
// budget: 200 jobs arrive at once in ascending ID order, which SRTF
// orders by their shuffled work, so the first merge must fall back to a
// full sort — and still match the fresh order.
func TestMaintainedOrderFullSortFallback(t *testing.T) {
	r := rng.New(3)
	jobs := make([]trace.JobSpec, 200)
	for i := range jobs {
		jobs[i] = trace.JobSpec{ID: i, Model: "resnet50", Demand: 1, Work: float64(600 * (1 + r.Intn(100)))}
	}
	tr := &trace.Trace{Name: "burst", Jobs: jobs}
	ctr := checkOrder(t, orderConfig(tr, sched.SRTF{}, place.NewPacked(true, 1)))
	if ctr.OrderResorts == 0 {
		t.Errorf("no repair fell back to a full sort (%+v)", *ctr)
	}
	if ctr.OrderMerges == 0 || ctr.OrderRevalidated == 0 {
		t.Errorf("merge and revalidation paths not both taken (%+v)", *ctr)
	}
}

func orderConfig(tr *trace.Trace, s sim.Scheduler, p sim.Placer) sim.Config {
	topo := clusterTopology(8)
	return sim.Config{
		Topology:            topo,
		Trace:               tr,
		Sched:               s,
		Placer:              p,
		TrueProfile:         vprof.GenerateLonghorn(topo.Size(), 0x9A1),
		Lacross:             1.5,
		MigrationPenaltySec: 10,
	}
}
