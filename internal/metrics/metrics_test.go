package metrics

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// obs builds a RoundObservation over synthetic running jobs.
func obs(start float64, rounds int, waiting int, jobs ...*sim.Job) sim.RoundObservation {
	sds := make([]float64, len(jobs))
	for i := range sds {
		sds[i] = 1.0 + float64(i)*0.5
	}
	return sim.RoundObservation{
		Start: start, RoundSec: 300, Rounds: rounds,
		Running: jobs, Slowdowns: sds, Waiting: waiting,
	}
}

func job(id, demand int, class vprof.Class) *sim.Job {
	return &sim.Job{Spec: trace.JobSpec{ID: id, Demand: demand, Class: class}}
}

func TestCollectorSamplingCadence(t *testing.T) {
	c := MustCollector(Config{IntervalRounds: 3, ClusterGPUs: 8})
	// 10 rounds in three spans: rounds 0-1, 2-7, 8-9. Samples land on
	// rounds 0, 3, 6, 9 regardless of span boundaries.
	j := job(1, 2, vprof.ClassA)
	c.ObserveRounds(obs(0, 2, 0, j))
	c.ObserveRounds(obs(600, 6, 1, j))
	c.ObserveRounds(obs(2400, 2, 0, j))
	if c.Rounds() != 10 {
		t.Fatalf("observed %d rounds, want 10", c.Rounds())
	}
	c.FinishRun(&sim.Result{})
	p := c.Payload()
	s, ok := p.SeriesByName(SeriesQueueDepth)
	if !ok {
		t.Fatal("queue_depth missing")
	}
	if want := []int64{0, 3, 6, 9}; !reflect.DeepEqual(s.Rounds, want) {
		t.Fatalf("sample rounds %v, want %v", s.Rounds, want)
	}
	if want := []float64{0, 1, 1, 0}; !reflect.DeepEqual(s.Values, want) {
		t.Fatalf("queue_depth values %v, want %v", s.Values, want)
	}
}

func TestCollectorSeriesValues(t *testing.T) {
	c := MustCollector(Config{ClusterGPUs: 16})
	a := job(0, 4, vprof.ClassA) // slowdown 1.0 -> goodput 4
	b := job(1, 2, vprof.ClassB) // slowdown 1.5 -> goodput 2/1.5
	c.ObserveRounds(obs(0, 1, 3, a, b))
	c.FinishRun(&sim.Result{})
	p := c.Payload()

	want := map[string]float64{
		SeriesGPUsInUse:                  6,
		SeriesUtilization:                6.0 / 16,
		SeriesQueueDepth:                 3,
		SeriesRunningJobs:                2,
		SeriesGoodput:                    4 + 2/1.5,
		GoodputClassSeries(vprof.ClassA): 4,
		GoodputClassSeries(vprof.ClassB): 2 / 1.5,
		GoodputClassSeries(vprof.ClassC): 0,
	}
	for name, v := range want {
		s, ok := p.SeriesByName(name)
		if !ok {
			t.Errorf("series %s missing", name)
			continue
		}
		if len(s.Values) != 1 || s.Values[0] != v {
			t.Errorf("%s = %v, want [%g]", name, s.Values, v)
		}
	}
}

func TestCollectorRingEviction(t *testing.T) {
	c := MustCollector(Config{MaxSamples: 4, Series: []string{SeriesRunningJobs}})
	j := job(0, 1, vprof.ClassA)
	c.ObserveRounds(obs(0, 10, 0, j))
	c.FinishRun(&sim.Result{})
	s, _ := c.Payload().SeriesByName(SeriesRunningJobs)
	if want := []int64{6, 7, 8, 9}; !reflect.DeepEqual(s.Rounds, want) {
		t.Fatalf("ring kept rounds %v, want most recent %v", s.Rounds, want)
	}
	if s.Dropped != 6 {
		t.Errorf("dropped %d, want 6", s.Dropped)
	}
}

func TestCollectorEnabledSeriesFiltering(t *testing.T) {
	c := MustCollector(Config{Series: []string{SeriesGPUsInUse, SeriesQueueDepth}, ClusterGPUs: 4})
	c.ObserveRounds(obs(0, 1, 0, job(0, 1, vprof.ClassA)))
	c.FinishRun(&sim.Result{})
	p := c.Payload()
	if len(p.Series) != 2 {
		t.Fatalf("payload has %d series, want the 2 enabled: %+v", len(p.Series), p.Series)
	}
	if _, err := NewCollector(Config{Series: []string{"gpu_temperature"}}); err == nil {
		t.Error("unknown series name accepted")
	}
}

func TestCollectorUtilizationNeedsClusterSize(t *testing.T) {
	c := MustCollector(Config{})
	c.ObserveRounds(obs(0, 1, 0, job(0, 1, vprof.ClassA)))
	c.FinishRun(&sim.Result{})
	if _, ok := c.Payload().SeriesByName(SeriesUtilization); ok {
		t.Error("utilization series present without a cluster size")
	}
	if _, ok := c.Payload().SeriesByName(SeriesGPUsInUse); !ok {
		t.Error("gpus_in_use must not depend on cluster size")
	}
}

func TestPayloadSaveLoadRoundTrip(t *testing.T) {
	// An end-to-end run gives a fully-populated payload.
	tr := &trace.Trace{Name: "t", Jobs: []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 1, Work: 900, Class: vprof.ClassA},
		{ID: 1, Arrival: 300, Demand: 2, Work: 1200, Class: vprof.ClassB},
		// Demand exceeds the 4-GPU cluster: AdmitFits rejects it, and the
		// record must say so rather than archive a JCT-0 "completion".
		{ID: 2, Arrival: 300, Demand: 99, Work: 600, Class: vprof.ClassC},
	}}
	topo := cluster.Topology{NumNodes: 1, GPUsPerNode: 4}
	col := MustCollector(Config{ClusterGPUs: topo.Size(), Label: "roundtrip", Policy: "packed-sticky", Sched: "fifo"})
	res, err := sim.Run(sim.Config{
		Topology:    topo,
		Trace:       tr,
		Sched:       stubSched{},
		Placer:      stubPlacer{},
		TrueProfile: vprof.GenerateLonghorn(topo.Size(), 1),
		Metrics:     col,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := FromResult(res)
	if p == nil || p.Name != "roundtrip" || len(p.Jobs) != 3 || len(p.Series) == 0 {
		t.Fatalf("unexpected payload: %+v", p)
	}
	rejected := p.Jobs[2]
	if !rejected.Rejected || rejected.JCT != 0 || rejected.Finish != 0 || rejected.Started {
		t.Fatalf("admission-rejected job not flagged: %+v", rejected)
	}
	if p.JCTHist == nil || p.JCTHist.N == 0 {
		t.Fatalf("JCT histogram: %+v", p.JCTHist)
	}

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatal("payload did not round-trip through JSON")
	}

	// Unknown fields must be rejected loudly.
	if _, err := Load(bytes.NewReader([]byte(`{"name": "x", "bogus": 1}`))); err == nil {
		t.Error("payload with unknown field accepted")
	}
	// So must anything after the document.
	for _, tail := range []string{`{"garbage": 1}`, "trailing", "}"} {
		if _, err := Load(strings.NewReader(buf.String() + tail)); err == nil {
			t.Errorf("payload followed by %q accepted", tail)
		}
	}
	if _, err := Load(strings.NewReader(buf.String() + "\n\n")); err != nil {
		t.Errorf("payload followed by whitespace rejected: %v", err)
	}
}

// stubSched/stubPlacer are the minimal policies for the round-trip run.
type stubSched struct{}

func (stubSched) Name() string                                { return "fifo" }
func (stubSched) Order(jobs []*sim.Job, _ float64) []*sim.Job { return jobs }

type stubPlacer struct{}

func (stubPlacer) Name() string { return "stub" }
func (stubPlacer) Sticky() bool { return true }
func (stubPlacer) PlaceRound(c *cluster.Cluster, need []*sim.Job, _ float64) map[int][]cluster.GPUID {
	out := make(map[int][]cluster.GPUID, len(need))
	next := 0
	for _, j := range need {
		var alloc []cluster.GPUID
		for len(alloc) < j.Spec.Demand {
			if c.IsFree(cluster.GPUID(next)) {
				alloc = append(alloc, cluster.GPUID(next))
			}
			next++
		}
		out[j.Spec.ID] = alloc
	}
	return out
}
