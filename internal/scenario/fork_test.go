package scenario

import (
	"fmt"
	"testing"
)

// forkBaseSpec is a small but non-trivial configuration: enough jobs
// and few enough GPUs that the queue stays contended across the fork
// horizon, with both sinks recording so their state rides the
// snapshot.
const forkBaseSpec = `{
	"name": "fork-base",
	"cluster": {"nodes": 4, "gpus_per_node": 4},
	"workload": {"source": "synthetic", "num_jobs": 60, "jobs_per_hour": 40},
	"sched": {"name": "las"},
	"metrics": {"enabled": true},
	"decisions": {"enabled": true}
}`

// buildSpec parses and builds a spec from JSON, with optional mutation
// between parse and build.
func buildSpec(t *testing.T, src string, mutate func(*Spec)) *Built {
	t.Helper()
	s, err := Parse([]byte(src))
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
	return b
}

// TestPrefixKeySensitivity: the prefix key must separate cells whose
// warmup runs genuinely differ — and only those.
func TestPrefixKeySensitivity(t *testing.T) {
	base := func() *Built {
		return buildSpec(t, forkBaseSpec, func(s *Spec) {
			s.Fork = &ForkSpec{Rounds: 10, Policy: "packed-sticky"}
		})
	}
	ref := base().PrefixKey()

	// The cell's own post-fork policy must NOT move the prefix key.
	same := buildSpec(t, forkBaseSpec, func(s *Spec) {
		s.Fork = &ForkSpec{Rounds: 10, Policy: "packed-sticky"}
		s.Policy.Name = "pm-first"
	})
	if same.PrefixKey() != ref {
		t.Error("post-fork policy perturbs the prefix key (kills snapshot sharing)")
	}
	// Neither must the cell's name.
	renamed := buildSpec(t, forkBaseSpec, func(s *Spec) {
		s.Fork = &ForkSpec{Rounds: 10, Policy: "packed-sticky"}
		s.Name = "other"
	})
	if renamed.PrefixKey() != ref {
		t.Error("cell name perturbs the prefix key (kills snapshot sharing)")
	}
	// Nor the post-fork placer's seed: a switched warmup placer derives
	// its own stream.
	reseeded := buildSpec(t, forkBaseSpec, func(s *Spec) {
		s.Fork = &ForkSpec{Rounds: 10, Policy: "packed-sticky"}
		s.Policy.Seed = 77
	})
	if reseeded.PrefixKey() != ref {
		t.Error("post-fork placer seed perturbs the prefix key (kills snapshot sharing)")
	}
	// Nor its params: a switched warmup placer takes none.
	tuned := buildSpec(t, forkBaseSpec, func(s *Spec) {
		s.Fork = &ForkSpec{Rounds: 10, Policy: "packed-sticky"}
		s.Policy.Params = map[string]float64{"no_hysteresis": 1}
	})
	if tuned.PrefixKey() != ref {
		t.Error("post-fork placer params perturb the prefix key (kills snapshot sharing)")
	}
	// An own-policy warmup does take them.
	ownParams := func(params map[string]float64) string {
		return buildSpec(t, forkBaseSpec, func(s *Spec) {
			s.Fork = &ForkSpec{Rounds: 10}
			s.Policy.Params = params
		}).PrefixKey()
	}
	if ownParams(nil) == ownParams(map[string]float64{"no_hysteresis": 1}) {
		t.Error("the params of an own-policy warmup placer do not perturb the prefix key")
	}
	// An own-policy warmup does draw from policy.seed.
	own := func(seed uint64) string {
		return buildSpec(t, forkBaseSpec, func(s *Spec) {
			s.Fork = &ForkSpec{Rounds: 10}
			s.Policy.Name = "random-sticky"
			s.Policy.Seed = seed
		}).PrefixKey()
	}
	if own(0) == own(77) {
		t.Error("the seed of an own-policy warmup placer does not perturb the prefix key")
	}

	// Everything the warmup run can observe must move it.
	perturb := map[string]func(*Spec){
		"horizon":       func(s *Spec) { s.Fork.Rounds = 11 },
		"warmup policy": func(s *Spec) { s.Fork.Policy = "random-sticky" },
		"warmup sched":  func(s *Spec) { s.Fork.Sched = "fifo" },
		"seed":          func(s *Spec) { s.Seed = 2 },
		"cluster":       func(s *Spec) { s.Cluster.Nodes = 5 },
		"round length":  func(s *Spec) { s.Engine.RoundSec = 120 },
		"metrics off":   func(s *Spec) { s.Metrics = MetricsSpec{} },
		"stale profile": func(s *Spec) { s.Profile.Stale = &StaleSpec{GPUs: 2, Factor: 3} },
	}
	for what, mutate := range perturb {
		b := buildSpec(t, forkBaseSpec, func(s *Spec) {
			s.Fork = &ForkSpec{Rounds: 10, Policy: "packed-sticky"}
			mutate(s)
		})
		if b.PrefixKey() == ref {
			t.Errorf("%s does not perturb the prefix key (cells with different warmups would share a snapshot)", what)
		}
	}
}

// TestForkNormalization: naming the spec's own policy as warmup
// canonicalizes to the empty ("own") form, so both spellings share one
// cache key; a fork block must also survive grid expansion into every
// cell.
func TestForkNormalization(t *testing.T) {
	explicit := buildSpec(t, forkBaseSpec, func(s *Spec) {
		s.Fork = &ForkSpec{Rounds: 10, Policy: s.Policy.Name, Sched: s.Sched.Name}
	})
	if explicit.Spec.Fork.Policy != "" || explicit.Spec.Fork.Sched != "" {
		t.Errorf("own-policy warmup did not canonicalize to empty: %+v", explicit.Spec.Fork)
	}

	src := fmt.Sprintf(`{
		"name": "fg",
		"cluster": {"nodes": 4},
		"workload": {"source": "synthetic", "num_jobs": 30, "jobs_per_hour": 30},
		"fork": {"rounds": 8, "policy": "packed-sticky"},
		"grid": {"policies": ["pal", "pm-first"]}
	}`)
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.ExpandGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	keys := make(map[string]bool)
	for _, c := range cells {
		if c.Fork == nil || c.Fork.Rounds != 8 {
			t.Fatalf("cell %s lost the fork block: %+v", c.Name, c.Fork)
		}
		b, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		keys[b.PrefixKey()] = true
	}
	if len(keys) != 1 {
		t.Errorf("policy-axis cells of one fork grid have %d prefix keys, want 1 shared", len(keys))
	}
}

// TestForkRejectsBadHorizon: a non-positive horizon is a spec error.
func TestForkRejectsBadHorizon(t *testing.T) {
	_, err := Parse([]byte(`{
		"name": "bad",
		"workload": {"source": "synthetic", "num_jobs": 10},
		"fork": {"rounds": 0}
	}`))
	if err == nil {
		t.Fatal("fork rounds 0 accepted, want a validation error")
	}
}
