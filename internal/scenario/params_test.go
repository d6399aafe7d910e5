package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// paramsSpec is a contended PM-First/PAL cell: enough jobs on few
// enough GPUs that placement choices move JCTs, on a cluster whose
// leading GPUs are mis-profiled so that online re-profiling has
// something to learn.
const paramsSpec = `{
	"name": "params",
	"cluster": {"nodes": 4},
	"profile": {"stale": {"class": 0, "gpus": 4, "factor": 3}},
	"workload": {"source": "synthetic", "num_jobs": 80, "jobs_per_hour": 40}
}`

// withParams builds paramsSpec under the named policy and params.
func withParams(t *testing.T, policy string, params map[string]float64) *Built {
	t.Helper()
	return buildSpec(t, paramsSpec, func(s *Spec) {
		s.Policy.Name = policy
		s.Policy.Params = params
	})
}

// TestPolicyParamsCanonical: a spec without params keeps its canonical
// bytes (no "params" key), and params at their zero defaults normalize
// away, so the spelled-out default keys like the omitted one while a
// set param moves the key.
func TestPolicyParamsCanonical(t *testing.T) {
	plain := withParams(t, "pal", nil)
	canon, err := plain.Spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(canon, []byte(`"params": `)) {
		t.Errorf("a spec without policy params canonicalizes with a params key:\n%s", canon)
	}
	spelled := withParams(t, "pal", map[string]float64{"no_hysteresis": 0, "online": 0})
	if spelled.Spec.Policy.Params != nil {
		t.Errorf("zero params survive normalization: %v", spelled.Spec.Policy.Params)
	}
	if spelled.Key() != plain.Key() {
		t.Error("policy params at their zero defaults change the key")
	}
	set := withParams(t, "pal", map[string]float64{"no_hysteresis": 1, "online": 0})
	if set.Key() == plain.Key() {
		t.Error("policy params do not feed the cache key")
	}
	if got := set.Spec.Policy.Params; !reflect.DeepEqual(got, map[string]float64{"no_hysteresis": 1}) {
		t.Errorf("normalized params %v, want only no_hysteresis", got)
	}
	// Parse(Canonical) is a fixed point with params, and clone deep-copies
	// them.
	canon, err = set.Spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(canon)
	if err != nil {
		t.Fatal(err)
	}
	if canon2, _ := again.Canonical(); !bytes.Equal(canon, canon2) {
		t.Errorf("canonical form with params is not a fixed point:\n%s\n%s", canon, canon2)
	}
	c := set.Spec.clone()
	c.Policy.Params["bins"] = 2
	if _, ok := set.Spec.Policy.Params["bins"]; ok {
		t.Error("clone shares the policy params map")
	}
}

// TestPolicyParamsReachThePlacer: each ablation knob changes the run,
// and only online attaches an observer.
func TestPolicyParamsReachThePlacer(t *testing.T) {
	run := func(b *Built) []float64 {
		t.Helper()
		res, err := b.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.JCTs()
	}
	for policy, params := range map[string][]string{
		"pm-first": {"bins", "exact_scores", "no_class_priority"},
		"pal":      {"no_hysteresis", "online"},
	} {
		ref := run(withParams(t, policy, nil))
		for _, param := range params {
			b := withParams(t, policy, map[string]float64{param: 1})
			if reflect.DeepEqual(run(b), ref) {
				t.Errorf("%s %s=1 leaves the run unchanged", policy, param)
			}
			cfg, err := b.Config()
			if err != nil {
				t.Fatal(err)
			}
			if (cfg.Observer != nil) != (param == "online") {
				t.Errorf("%s %s=1: observer attached %v", policy, param, cfg.Observer != nil)
			}
		}
	}
	racked := func(params map[string]float64) *Built {
		return buildSpec(t, paramsSpec, func(s *Spec) {
			s.Cluster.NodesPerRack = 2
			s.Locality.Lrack = 1.1
			s.Policy.Params = params
		})
	}
	if reflect.DeepEqual(run(racked(map[string]float64{"two_level": 1})), run(racked(nil))) {
		t.Error("pal two_level=1 on a racked cluster leaves the run unchanged")
	}
}

// TestPolicyParamsRejected: every invalid param fails Config with a
// message naming it, whichever policy it reaches.
func TestPolicyParamsRejected(t *testing.T) {
	cases := []struct {
		policy string
		params map[string]float64
		want   string
	}{
		{"packed-sticky", map[string]float64{"bins": 2}, `packed-sticky takes no parameters, got "bins"`},
		{"random-non-sticky", map[string]float64{"online": 1}, `takes no parameters`},
		{"pal", map[string]float64{"no_class_priority": 1}, `pal does not understand parameter "no_class_priority"`},
		{"pal", map[string]float64{"bins": 2}, `pal does not understand parameter "bins"`},
		{"pal", map[string]float64{"exact_scores": 1}, `pal does not understand parameter "exact_scores"`},
		{"pm-first", map[string]float64{"two_level": 1}, `pm-first does not understand parameter "two_level"`},
		{"pm-first", map[string]float64{"no_hysteresis": 1}, `pm-first does not understand parameter "no_hysteresis"`},
		{"pm-first", map[string]float64{"online": 1}, `pm-first does not understand parameter "online"`},
		{"pm-first", map[string]float64{"bins": 2.5}, "bins=2.5, want an integer from 1 to 16"},
		{"pm-first", map[string]float64{"bins": 17}, "bins=17, want an integer from 1 to 16"},
		{"pal", map[string]float64{"no_hysteresis": 2}, "no_hysteresis=2, want 0 (paper default) or 1"},
		{"pm-first", map[string]float64{"exact_scores": 1, "bins": 4}, "exact_scores excludes bins"},
		{"pal", map[string]float64{"two_level": 1}, "needs a rack level"},
	}
	for _, c := range cases {
		_, err := withParams(t, c.policy, c.params).Config()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %v: error %v, want one stating %q", c.policy, c.params, err, c.want)
		}
	}
}

// TestPolicyParamsFork: a fork's switched warmup placer takes no params
// (a baseline warmup would reject them), an own-policy warmup takes
// them and reproduces the unforked run, and an online placer cannot
// fork.
func TestPolicyParamsFork(t *testing.T) {
	params := map[string]float64{"no_class_priority": 1}
	fork := func(f *ForkSpec, policy string, params map[string]float64) *Built {
		return buildSpec(t, paramsSpec, func(s *Spec) {
			s.Policy.Name = policy
			s.Policy.Params = params
			s.Fork = f
		})
	}
	switched := fork(&ForkSpec{Rounds: 10, Policy: "packed-sticky"}, "pm-first", params)
	if _, err := switched.Run(); err != nil {
		t.Errorf("switched warmup under policy params: %v", err)
	}
	own, err := fork(&ForkSpec{Rounds: 10}, "pm-first", params).Run()
	if err != nil {
		t.Fatal(err)
	}
	straight, err := withParams(t, "pm-first", params).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(own.JCTs(), straight.JCTs()) {
		t.Error("an own-policy fork under policy params diverges from the unforked run")
	}
	_, err = fork(&ForkSpec{Rounds: 10}, "pal", map[string]float64{"online": 1}).Config()
	if err == nil || !strings.Contains(err.Error(), "fork snapshot does not capture") {
		t.Errorf("online placer with a fork block: error %v, want a rejection", err)
	}
}
