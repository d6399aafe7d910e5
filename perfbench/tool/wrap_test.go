package main

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// transparencySpec runs every placer and scheduler the workloads use on
// a small contended cluster with both sinks on, so payloads, traces and
// sink snapshot state all pass through the wrappers.
const transparencySpec = `{
  "name": "transparency",
  "cluster": {"nodes": 4, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 60, "jobs_per_hour": 40},
  "metrics": {"enabled": true},
  "decisions": {"enabled": true},
  "grid": {
    "policies": ["pal", "pm-first", "packed-sticky", "packed-non-sticky", "random-sticky", "random-non-sticky"],
    "scheds": ["fifo", "las", "srtf"]
  }
}`

// encoded is a result's archive bytes with PlaceTimes, its one
// wall-clock field, cleared.
func encoded(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	cp := *res
	cp.PlaceTimes = nil
	var buf bytes.Buffer
	if err := export.EncodeResult(&buf, &cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWrappedRunsAreByteIdentical: for every policy and scheduler the
// workloads use, plain and behind a fork (a capture/resume pair), the
// traced run encodes to the same bytes and steps through the same
// regimes as the unwrapped run.
func TestWrappedRunsAreByteIdentical(t *testing.T) {
	for _, fork := range []bool{false, true} {
		spec, err := scenario.Parse([]byte(transparencySpec))
		if err != nil {
			t.Fatal(err)
		}
		if fork {
			spec.Fork = &scenario.ForkSpec{Rounds: 12, Policy: "packed-sticky", Sched: "fifo"}
		}
		cells, err := spec.ExpandGrid()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range cells {
			b, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/fork=%v", s.Name, fork), func(t *testing.T) {
				plain := &sim.Counters{}
				b.Counters = plain
				want, err := b.Run()
				if err != nil {
					t.Fatal(err)
				}
				b.Counters = nil

				l := newLedger(1)
				wrapped := &sim.Counters{}
				got, _, err := l.runCell(cell{built: b, key: b.Key()}, nil, wrapped)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encoded(t, got), encoded(t, want)) {
					t.Error("wrapped run encodes differently from the unwrapped run")
				}
				if *wrapped != *plain {
					t.Errorf("wrapped counters %+v, unwrapped %+v", *wrapped, *plain)
				}
				if l.layers.place.calls == 0 || l.layers.metrics.calls == 0 || l.layers.decision.calls == 0 {
					t.Errorf("wrappers recorded no calls: %+v", *l.layers)
				}
				if fork && (l.captures.calls != 1 || l.resumes.calls != 1) {
					t.Errorf("fork ran %d captures and %d resumes, want 1 and 1", l.captures.calls, l.resumes.calls)
				}
			})
		}
	}
}

// Stubs with one capability each, composed below into every combination.
type (
	stubSched     struct{}
	stubLess      struct{}
	stubCeilings  struct{}
	stubState     struct{}
	stubPlacer    struct{}
	stubMetrics   struct{}
	stubPayload   struct{}
	stubDecisions struct{}
	stubTrace     struct{}
)

func (stubSched) Name() string                                     { return "stub" }
func (stubSched) Order(jobs []*sim.Job, _ float64) []*sim.Job      { return jobs }
func (stubLess) Less(a, b *sim.Job, _ float64) bool                { return a.Spec.ID < b.Spec.ID }
func (stubCeilings) AttainedCeilings(_, _ []*sim.Job, _ []float64) {}
func (stubState) MarshalSnapshotState() ([]byte, error)            { return nil, nil }
func (stubState) UnmarshalSnapshotState([]byte) error              { return nil }
func (stubPlacer) Name() string                                    { return "stub" }
func (stubPlacer) Sticky() bool                                    { return true }
func (stubMetrics) ObserveRounds(sim.RoundObservation)             {}
func (stubMetrics) FinishRun(*sim.Result)                          {}
func (stubPayload) Payload() *metrics.Payload                      { return nil }
func (stubDecisions) ObserveDecision(sim.DecisionObservation)      {}
func (stubDecisions) FinishRun(*sim.Result)                        {}
func (stubTrace) Trace() *decision.Trace                           { return nil }
func (stubPlacer) PlaceRound(*cluster.Cluster, []*sim.Job, float64) map[int][]cluster.GPUID {
	return nil
}

// capabilities lists which optional interfaces v implements.
func capabilities(v any) []bool {
	_, to := v.(sim.TotalOrderScheduler)
	_, ps := v.(sim.PartitionStableScheduler)
	_, st := v.(sim.SnapshotState)
	_, p := v.(payloader)
	_, tr := v.(traceHolder)
	return []bool{to, ps, st, p, tr}
}

// TestWrappersForwardExactlyTheirCapabilities: a wrapper implements an
// optional interface exactly when the wrapped value does.
func TestWrappersForwardExactlyTheirCapabilities(t *testing.T) {
	lt := newLayerTimes()
	scheds := []sim.Scheduler{
		stubSched{},
		struct {
			stubSched
			stubLess
		}{},
		struct {
			stubSched
			stubCeilings
		}{},
		struct {
			stubSched
			stubState
		}{},
		struct {
			stubSched
			stubLess
			stubCeilings
		}{},
		struct {
			stubSched
			stubLess
			stubState
		}{},
		struct {
			stubSched
			stubCeilings
			stubState
		}{},
		struct {
			stubSched
			stubLess
			stubCeilings
			stubState
		}{},
	}
	for _, s := range scheds {
		if got, want := capabilities(wrapSched(s, lt)), capabilities(s); !reflect.DeepEqual(got, want) {
			t.Errorf("scheduler %T: wrapper capabilities %v, want %v", s, got, want)
		}
	}
	for _, p := range []sim.Placer{stubPlacer{}, struct {
		stubPlacer
		stubState
	}{}} {
		if got, want := capabilities(wrapPlacer(p, lt)), capabilities(p); !reflect.DeepEqual(got, want) {
			t.Errorf("placer %T: wrapper capabilities %v, want %v", p, got, want)
		}
	}
	sinks := []sim.MetricsSink{
		stubMetrics{},
		struct {
			stubMetrics
			stubPayload
		}{},
		struct {
			stubMetrics
			stubState
		}{},
		struct {
			stubMetrics
			stubPayload
			stubState
		}{},
	}
	for _, m := range sinks {
		if got, want := capabilities(wrapMetrics(m, lt)), capabilities(m); !reflect.DeepEqual(got, want) {
			t.Errorf("metrics sink %T: wrapper capabilities %v, want %v", m, got, want)
		}
	}
	recorders := []sim.DecisionSink{
		stubDecisions{},
		struct {
			stubDecisions
			stubTrace
		}{},
		struct {
			stubDecisions
			stubState
		}{},
		struct {
			stubDecisions
			stubTrace
			stubState
		}{},
	}
	for _, d := range recorders {
		if got, want := capabilities(wrapDecisions(d, lt)), capabilities(d); !reflect.DeepEqual(got, want) {
			t.Errorf("decision sink %T: wrapper capabilities %v, want %v", d, got, want)
		}
	}
}
