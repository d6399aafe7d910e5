package scenario_test

// The fork byte-identity tests compare results through the versioned
// result codec. They live in the external test package because the
// codec's package (export) imports experiments, which imports scenario.

import (
	"bytes"
	"testing"

	"repro/internal/export"
	"repro/internal/scenario"
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

// buildSpec parses and builds forkBaseSpec, with optional mutation
// between parse and build.
func buildSpec(t *testing.T, mutate func(*scenario.Spec)) *scenario.Built {
	t.Helper()
	s, err := scenario.Parse([]byte(forkBaseSpec))
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

// resultBytes archives a result through the versioned codec with the
// wall-clock field neutralized — the byte-identity comparison form.
func resultBytes(t *testing.T, b *scenario.Built) []byte {
	t.Helper()
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	res.PlaceTimes = nil
	var buf bytes.Buffer
	if err := export.EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestForkedRunByteIdentical: a fork whose warmup equals the spec's own
// policies (pure prefix caching) must reproduce the unforked run bit
// for bit — capture/resume is not allowed to perturb anything.
func TestForkedRunByteIdentical(t *testing.T) {
	plain := buildSpec(t, nil)
	want := resultBytes(t, plain)
	for _, horizon := range []int{1, 7, 40} {
		forked := buildSpec(t, func(s *scenario.Spec) {
			s.Fork = &scenario.ForkSpec{Rounds: horizon}
		})
		if got := resultBytes(t, forked); !bytes.Equal(got, want) {
			t.Errorf("fork at round %d diverged from the unforked run", horizon)
		}
	}
}

// TestSharedSnapshotMatchesOwnCapture: cells differing only in their
// post-fork policies share a prefix; resuming cell B from cell A's
// snapshot must equal B simulating its own prefix — the property that
// makes cross-cell snapshot sharing sound.
func TestSharedSnapshotMatchesOwnCapture(t *testing.T) {
	fork := &scenario.ForkSpec{Rounds: 12, Policy: "packed-sticky", Sched: "fifo"}
	cellA := buildSpec(t, func(s *scenario.Spec) {
		s.Fork = &scenario.ForkSpec{Rounds: fork.Rounds, Policy: fork.Policy, Sched: fork.Sched}
		s.Policy.Name = "pal"
	})
	cellB := buildSpec(t, func(s *scenario.Spec) {
		s.Fork = &scenario.ForkSpec{Rounds: fork.Rounds, Policy: fork.Policy, Sched: fork.Sched}
		s.Policy.Name = "pm-first"
		s.Sched.Name = "srtf"
		s.Sched.Params = nil
	})
	if cellA.PrefixKey() != cellB.PrefixKey() {
		t.Fatalf("cells differing only in post-fork policies have different prefix keys:\n  A %s\n  B %s",
			cellA.PrefixKey(), cellB.PrefixKey())
	}
	snapA, early, err := cellA.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snapA == nil {
		t.Fatalf("warmup completed before the horizon (early=%v); enlarge the workload", early != nil)
	}
	shared, err := cellB.ResumeFrom(snapA)
	if err != nil {
		t.Fatal(err)
	}
	own, err := cellB.RunForked()
	if err != nil {
		t.Fatal(err)
	}
	shared.PlaceTimes, own.PlaceTimes = nil, nil
	var a, b bytes.Buffer
	if err := export.EncodeResult(&a, shared); err != nil {
		t.Fatal(err)
	}
	if err := export.EncodeResult(&b, own); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resuming from a shared snapshot diverged from simulating the cell's own prefix")
	}
}

// TestForkPastEndOfRun: a horizon beyond the run's natural end returns
// the warmup run's result unchanged — with an own-policy warmup that
// is byte-identical to the unforked run.
func TestForkPastEndOfRun(t *testing.T) {
	plain := buildSpec(t, nil)
	want := resultBytes(t, plain)
	forked := buildSpec(t, func(s *scenario.Spec) {
		s.Fork = &scenario.ForkSpec{Rounds: 1000000}
	})
	if got := resultBytes(t, forked); !bytes.Equal(got, want) {
		t.Error("past-end fork diverged from the unforked run")
	}
}
