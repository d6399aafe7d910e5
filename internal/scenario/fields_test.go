package scenario

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/vprof"
)

// class99Spec replays testdata/class99-trace.json, whose second job
// names class 99, on the 3-class Longhorn profile under placer.
func class99Spec(placer string) string {
	return fmt.Sprintf(`{
	"name": "class99-%s",
	"cluster": {"nodes": 2},
	"workload": {"source": "file", "path": "testdata/class99-trace.json"},
	"policy": {"name": %q}
}`, placer, placer)
}

// TestBuildRejectsJobClassOutsideProfile is the regression test for a
// file-sourced job whose class the profile does not have: the engine
// and the placers index the profile by class, so the run panicked (a
// nil dereference under pal, an index out of range under pm-first and
// packed-sticky). Build must reject the spec instead.
func TestBuildRejectsJobClassOutsideProfile(t *testing.T) {
	for _, placer := range []string{"pal", "pm-first", "packed-sticky"} {
		spec, err := Parse([]byte(class99Spec(placer)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.Build()
		if err == nil {
			t.Fatalf("%s: Build accepted a class-99 job on a 3-class profile", placer)
		}
		for _, want := range []string{"job 1 has class 99", "want 0..2"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not state %q", placer, err, want)
			}
		}
		if b != nil {
			t.Errorf("%s: Build returned a scenario with its error", placer)
		}
	}
}

// TestPolicySeed: policy.seed seeds the spec's placer directly — the
// derived seed spelled out reproduces the unset spec's run, and another
// seed changes it — and it feeds the cache key.
func TestPolicySeed(t *testing.T) {
	const src = `{
	"name": "seeded",
	"cluster": {"nodes": 4},
	"workload": {"source": "synthetic", "num_jobs": 60, "jobs_per_hour": 30},
	"policy": {"name": "random-non-sticky"}
}`
	build := func(seed uint64) *Built {
		t.Helper()
		s, err := Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		s.Policy.Seed = seed
		b, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	jcts := func(b *Built) []float64 {
		t.Helper()
		res, err := b.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.JCTs()
	}
	unset := build(0)
	derived := runner.DeriveSeed(unset.Spec.Seed, "scenario/placer/random-non-sticky")
	spelled := build(derived)
	if !reflect.DeepEqual(jcts(unset), jcts(spelled)) {
		t.Error("policy.seed set to the derived seed changed the run")
	}
	if reflect.DeepEqual(jcts(unset), jcts(build(derived+1))) {
		t.Error("a different policy.seed left the random placer's run unchanged")
	}
	if unset.Key() == spelled.Key() {
		t.Error("policy.seed does not feed the cache key")
	}
}

// TestStaleProfile: profile.stale leaves the profile the placers see
// untouched and makes its class run Factor times slower than profiled
// on the leading GPUs only.
func TestStaleProfile(t *testing.T) {
	const src = `{
	"name": "stale",
	"profile": {"source": "testbed"},
	"workload": {"source": "sia-philly", "workload": 1},
	"sched": {"name": "las"}
}`
	fresh, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	stale, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	stale.Profile.Stale = &StaleSpec{Class: int(vprof.ClassA), GPUs: 2, Factor: 3}
	bFresh, err := fresh.Build()
	if err != nil {
		t.Fatal(err)
	}
	bStale, err := stale.Build()
	if err != nil {
		t.Fatal(err)
	}
	if bFresh.TrueProfile != bFresh.Profile {
		t.Error("without profile.stale the engine charges a different profile than the placers see")
	}
	if bStale.Profile != bFresh.Profile {
		t.Error("profile.stale changed the profile the placers consult")
	}
	// Profiles are normalized to their median GPU, so the charged class
	// A scores are the profiled ones times one common scale, and the
	// two stale GPUs' times 3 on top.
	base, truth := bStale.Profile, bStale.TrueProfile
	scale := truth.Score(vprof.ClassA, 2) / base.Score(vprof.ClassA, 2)
	for c := vprof.Class(0); int(c) < base.NumClasses(); c++ {
		for g := 0; g < base.NumGPUs(); g++ {
			want := base.Score(c, g)
			if c == vprof.ClassA {
				want *= scale
				if g < 2 {
					want *= 3
				}
			}
			if got := truth.Score(c, g); math.Abs(got-want) > 1e-12*want {
				t.Errorf("class %s GPU %d: charged score %v, want %v", c, g, got, want)
			}
		}
	}
	if bStale.Key() == bFresh.Key() {
		t.Error("profile.stale does not feed the cache key")
	}
	rFresh, err := bFresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	rStale, err := bStale.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(rFresh.JCTs(), rStale.JCTs()) {
		t.Error("the mis-profiled GPUs did not slow any job")
	}

	// Bounds that need the built profile and cluster fail in Build.
	for _, tc := range []struct {
		stale StaleSpec
		want  string
	}{
		{StaleSpec{Class: 3, GPUs: 1, Factor: 2}, "stale class 3, want 0..2"},
		{StaleSpec{Class: 0, GPUs: 65, Factor: 2}, "stale gpus 65, want 1..64"},
		// Factors that Validate accepts but that overflow the scores:
		// the stale GPUs' own, or (with most GPUs stale, so the median
		// is tiny) the fresh GPUs' once renormalized.
		{StaleSpec{Class: 0, GPUs: 64, Factor: math.MaxFloat64}, "charged profile the engine cannot use"},
		{StaleSpec{Class: 0, GPUs: 48, Factor: 5.6e-309}, "charged profile the engine cannot use"},
	} {
		s, err := Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		s.Profile.Stale = &tc.stale
		if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("stale %+v: Build error %v, want %q", tc.stale, err, tc.want)
		}
	}
}
