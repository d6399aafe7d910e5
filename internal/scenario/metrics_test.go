package scenario

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// runWithMetrics parses the spec source and runs it, with the metrics
// block force-enabled when asked (via the same mutate-and-renormalize
// path the CLIs use).
func runWithMetrics(t *testing.T, src string, enable bool) *sim.Result {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if enable {
		s.Metrics.Enabled = true
		s.Normalize()
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMetricsDoNotPerturbSimulation is the collector's determinism
// guarantee at the scenario level: attaching metrics must not change a
// single simulation outcome. Every stream below the runner derives from
// rng.Split sub-streams keyed by stable labels, and the collector draws
// from none of them — so the result must be byte-identical with and
// without telemetry, on both a Sia workload and a synthetic-bursty one
// (the two arrival regimes with the most RNG traffic).
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	cases := map[string]string{
		"sia": `{"name": "sia", "workload": {"source": "sia-philly", "workload": 5},
		         "policy": {"name": "tiresias"}}`,
		"bursty": `{"name": "burst", "workload": {"source": "synthetic", "arrivals": "bursty", "num_jobs": 60, "jobs_per_hour": 25},
		            "policy": {"name": "random-sticky"}, "sched": {"name": "las"}}`,
	}
	for name, src := range cases {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			off := runWithMetrics(t, src, false)
			on := runWithMetrics(t, src, true)
			if metrics.FromResult(on) == nil {
				t.Fatal("instrumented run carried no payload")
			}
			// Compare the full results except the sink pointer and the
			// wall-clock placement timings (values nondeterministic by
			// nature; counts must still match).
			if len(off.PlaceTimes) != len(on.PlaceTimes) {
				t.Errorf("PlaceTimes count: %d without metrics, %d with", len(off.PlaceTimes), len(on.PlaceTimes))
			}
			off.PlaceTimes, on.PlaceTimes = nil, nil
			off.Metrics, on.Metrics = nil, nil
			if !reflect.DeepEqual(off, on) {
				for i := range off.Jobs {
					if !reflect.DeepEqual(off.Jobs[i], on.Jobs[i]) {
						t.Errorf("job %d diverged:\n  off %+v\n  on  %+v", i, *off.Jobs[i], *on.Jobs[i])
						break
					}
				}
				t.Fatal("attaching metrics changed the simulation result")
			}
		})
	}
}

// TestMetricsChangeCacheKey pins the cache-key invariant for the new
// block: a metrics-carrying run must never alias a bare one, and any
// knob of the block must split the key.
func TestMetricsChangeCacheKey(t *testing.T) {
	base := `{"name": "k", "workload": {"source": "synthetic", "num_jobs": 30, "jobs_per_hour": 20}}`
	key := func(mutate func(*Spec)) string {
		s, err := Parse([]byte(base))
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(s)
			s.Normalize()
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		b, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		return b.Key()
	}
	keys := map[string]string{
		"off":      key(nil),
		"on":       key(func(s *Spec) { s.Metrics.Enabled = true }),
		"interval": key(func(s *Spec) { s.Metrics.Enabled = true; s.Metrics.IntervalRounds = 9 }),
		"series": key(func(s *Spec) {
			s.Metrics.Enabled = true
			s.Metrics.Series = []string{metrics.SeriesQueueDepth}
		}),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("metrics variants %q and %q share cache key %s", prev, name, k[:16])
		}
		seen[k] = name
	}
}
