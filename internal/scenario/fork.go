package scenario

// Forked runs: a spec with a fork block simulates a warmup prefix —
// the fork's warmup policies up to the horizon round — captures the
// engine there (sim.Capture), and resumes under the spec's own
// policies (sim.Resume). The point of the split is sharing: every cell
// of a sweep whose warmup configuration, horizon and arrived-prefix
// workload coincide keys to the same snapshot (PrefixKey), so the
// sweep layer simulates the shared prefix once and forks each cell
// from it at the divergence point.
//
// Correctness rests on two facts pinned by tests:
//
//   - Resuming a snapshot is byte-identical to running straight
//     through (sim.TestSnapshotResumeByteIdentical), so a fork whose
//     warmup equals its own policies reproduces the unforked result
//     exactly.
//   - The capture state depends only on the jobs that can have arrived
//     by the horizon and on whether any arrival follows — never on
//     what the post-horizon workload looks like — so PrefixKey hashes
//     the materialized arrival prefix instead of the whole workload
//     and cells differing only in workload suffix share a snapshot.

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Forked reports whether the spec carries a fork block.
func (b *Built) Forked() bool { return b.Spec.Fork != nil }

// warmupNames resolves the fork's warmup policy and sched names (empty
// fork fields select the spec's own).
func (s *Spec) warmupNames() (policy, schd string) {
	policy, schd = s.Policy.Name, s.Sched.Name
	if f := s.Fork; f != nil {
		if f.Policy != "" {
			policy = f.Policy
		}
		if f.Sched != "" {
			schd = f.Sched
		}
	}
	return policy, schd
}

// WarmupConfig assembles the prefix configuration: the cell's full
// config — cluster, trace, profile, sinks, labels — with the scheduler
// and placer swapped for the warmup policies where the fork names
// them. Keeping the cell's own sinks means an early-completed warmup
// run yields a correctly-labeled payload, and a captured sink state
// restores into the identically-configured resumed sink.
func (b *Built) WarmupConfig() (sim.Config, error) {
	cfg, err := b.Config()
	if err != nil {
		return sim.Config{}, err
	}
	s := b.Spec
	f := s.Fork
	if f == nil {
		return cfg, nil
	}
	if f.Policy != "" && f.Policy != s.Policy.Name {
		placer, err := b.buildPlacer(f.Policy)
		if err != nil {
			return sim.Config{}, fmt.Errorf("scenario %s: fork warmup: %w", s.Name, err)
		}
		cfg.Placer = placer
	}
	if f.Sched != "" && f.Sched != s.Sched.Name {
		schd, err := sched.Build(f.Sched, nil)
		if err != nil {
			return sim.Config{}, fmt.Errorf("scenario %s: fork warmup: %w", s.Name, err)
		}
		cfg.Sched = schd
	}
	return cfg, nil
}

// CaptureSnapshot simulates the warmup prefix and captures the engine
// at the fork horizon. When the run completes before the horizon the
// snapshot is nil and the returned result IS the forked run's result:
// the switch point was never reached, so the warmup run — carrying the
// cell's own sinks and labels — is the whole run.
func (b *Built) CaptureSnapshot() (*sim.Snapshot, *sim.Result, error) {
	cfg, err := b.WarmupConfig()
	if err != nil {
		return nil, nil, err
	}
	return sim.Capture(cfg, b.Spec.Fork.Rounds)
}

// ResumeFrom resumes the cell's own configuration from a prefix
// snapshot: the spec's policy and sched take over at the horizon
// (policy state restores only where the resumed component's name
// matches the captured one — a genuine switch starts the new policy
// fresh, deterministically).
func (b *Built) ResumeFrom(snap *sim.Snapshot) (*sim.Result, error) {
	cfg, err := b.Config()
	if err != nil {
		return nil, err
	}
	return sim.Resume(cfg, snap)
}

// RunForked executes the fork semantics end to end: it simulates the
// warmup prefix here, then resumes under the cell's own policies. A
// warmup that completes before the horizon is the whole run.
func (b *Built) RunForked() (*sim.Result, error) {
	snap, early, err := b.CaptureSnapshot()
	if err != nil || snap == nil {
		return early, err
	}
	return b.ResumeFrom(snap)
}

// PrefixKey returns the content-addressed identity of the fork's
// shared prefix — the snapshot cache's key space. Two cells share a
// key exactly when their warmup runs are indistinguishable up to the
// horizon: same warmup policies, same cluster/profile/engine/sink
// configuration, same horizon, same materialized arrival prefix, and
// agreement on whether any arrival follows the prefix (a run out of
// arrivals can complete before the horizon; one with more cannot).
// The cell's own policy/sched, its name and its workload suffix are
// deliberately absent: they are what the fork lets differ.
func (b *Built) PrefixKey() string {
	s := b.Spec
	f := s.Fork
	if f == nil {
		panic("scenario: PrefixKey on a spec without a fork block")
	}
	h := runner.NewHash()
	// v1: first generation of the prefix-key encoding. Bump on any
	// change to what a snapshot captures or how prefixes are compared.
	h.String("scenario-snapshot/v1")
	wp, ws := s.warmupNames()
	probe := s.clone()
	probe.Name = ""
	probe.Fork = nil
	if wp != s.Policy.Name {
		// A switched warmup placer derives its own stream; the spec's
		// placer seed belongs to the post-fork policy only.
		probe.Policy.Seed = 0
	}
	probe.Policy.Name = wp
	if ws != s.Sched.Name {
		// A switched warmup sched is built with default params; the
		// spec's params belong to the post-fork sched only.
		probe.Sched.Params = nil
	}
	probe.Sched.Name = ws
	probe.Workload = WorkloadSpec{}
	canon, err := probe.Canonical()
	if err != nil {
		panic(err)
	}
	h.String(string(canon))
	h.Int(f.Rounds)
	cutoff, n := b.prefixCutoff()
	h.Float64(cutoff)
	hashJobs(h, b.Trace.Jobs[:n])
	more := 0
	if n < len(b.Trace.Jobs) {
		more = 1
	}
	h.Int(more)
	hashProfile(h, b.Profile)
	return h.Sum()
}

// prefixCutoff returns the latest pre-horizon admission time and the
// number of leading trace jobs that can have arrived by it. The engine
// admits at the top of each round; the capture point is the top of
// round Fork.Rounds before admissions, so every job with
// Arrival <= now at round Fork.Rounds-1 may be part of the captured
// state and no later job can influence it.
func (b *Built) prefixCutoff() (float64, int) {
	roundSec := b.Spec.Engine.RoundSec
	if roundSec <= 0 {
		roundSec = 300 // sim.Config's documented default round length
	}
	jobs := b.Trace.Jobs
	cutoff := 0.0
	if len(jobs) > 0 {
		cutoff = jobs[0].Arrival
	}
	// The engine advances its clock by repeated addition; mirror the
	// exact float accumulation so the boundary bits match.
	for r := 1; r < b.Spec.Fork.Rounds; r++ {
		cutoff += roundSec
	}
	n := 0
	for n < len(jobs) && jobs[n].Arrival <= cutoff {
		n++
	}
	return cutoff, n
}
