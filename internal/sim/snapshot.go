package sim

// Engine snapshots: a complete, deterministic capture of the engine's
// mutable state at a virtual-time horizon, so a sweep over cells sharing
// a warmup prefix can simulate the prefix once and fork each cell from
// the captured state. The acceptance bar is the house methodology: a run
// resumed from a snapshot is byte-identical to the straight-through run
// across all four stepping regimes, with or without metrics/decision
// sinks attached (TestSnapshotResumeByteIdentical pins this).
//
// The capture point is the top of the run loop at round Rounds — before
// that round's admissions, placement and advance — which is the one
// program point every stepping regime passes through with identical
// state: the idle-gap and bulk-advance loops are clamped at the horizon
// (see haltsAt) so a capture lands exactly on its round no matter how
// the engine was stepping when it got there.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
)

// SnapshotState is the capability interface snapshot-aware components
// implement: policies that carry mutable cross-round state (the
// rng-bearing placers) and the metrics/decision sinks. Marshal must
// serialize every field that influences future behavior or output;
// Unmarshal must restore the receiver to exactly that state. Components
// without the interface are treated as stateless (or as holding only
// deterministic pure caches, like PAL's lazily built L×V matrices).
type SnapshotState interface {
	MarshalSnapshotState() ([]byte, error)
	UnmarshalSnapshotState(data []byte) error
}

// JobState is one arrived job's mutable state at the horizon, plus an
// echo of the identifying spec fields so Resume can verify the target
// trace's prefix genuinely matches the captured one.
type JobState struct {
	// Spec echo (validation only; the resumed run keeps its own specs).
	ID      int     `json:"id"`
	Model   string  `json:"model,omitempty"`
	Class   int     `json:"class"`
	Arrival float64 `json:"arrival"`
	Demand  int     `json:"demand"`
	Work    float64 `json:"work"`

	// Mutable engine state (sim.Job's exported fields).
	Remaining   float64         `json:"remaining"`
	Alloc       []cluster.GPUID `json:"alloc"`
	Attained    float64         `json:"attained"`
	Started     bool            `json:"started,omitempty"`
	FirstRun    float64         `json:"first_run"`
	Finish      float64         `json:"finish"`
	Done        bool            `json:"done,omitempty"`
	Preemptions int             `json:"preemptions,omitempty"`
	Migrations  int             `json:"migrations,omitempty"`
	PrevAlloc   []cluster.GPUID `json:"prev_alloc"`
}

// Snapshot is the complete engine state at a horizon. All fields are
// plain data (JSON-friendly), ready for the canonical codec in
// internal/export and the persistent tier in internal/store.
type Snapshot struct {
	// Completed marks a sentinel snapshot recording that the prefix run
	// finished (or truncated) before the horizon, so there is no state
	// to fork from and cells must run from scratch. Every other field is
	// zero; Resume rejects it.
	Completed bool `json:"completed,omitempty"`

	// Rounds and Now are the captured clocks: the round counter at the
	// horizon and the engine clock's exact accumulated-float bits, so
	// the resumed round grid continues bit-identically.
	Rounds   int     `json:"rounds"`
	Now      float64 `json:"now"`
	RoundSec float64 `json:"round_sec"`

	// Topology pins the cluster shape the allocations refer to.
	Topology cluster.Topology `json:"topology"`

	// NextArrival is the index of the first not-yet-arrived trace job;
	// Jobs holds the mutable state of the arrived prefix Jobs[0:NextArrival]
	// (later jobs are still at their initial state, which Resume
	// reconstructs from the target trace).
	NextArrival int        `json:"next_arrival"`
	Jobs        []JobState `json:"jobs"`

	// SchedName/PlacerName are the prefix policies' registry names;
	// SchedState/PlacerState their marshaled SnapshotState (nil for
	// stateless policies). Resume restores a policy's state only when
	// the resumed component's name matches — a forked cell switching
	// policies at the horizon starts its new policy fresh, exactly as
	// the fork semantics define.
	SchedName   string `json:"sched_name"`
	PlacerName  string `json:"placer_name"`
	SchedState  []byte `json:"sched_state"`
	PlacerState []byte `json:"placer_state"`

	// MetricsState/DecisionsState are the attached sinks' marshaled
	// mid-run state (nil when no sink was attached at capture), so the
	// forked result's telemetry covers the whole run. (PlaceTimes is
	// deliberately absent: it is wall-clock observability data outside
	// byte-identity, and a forked result's PlaceTimes cover only
	// post-fork placements.)
	MetricsState   []byte `json:"metrics_state"`
	DecisionsState []byte `json:"decisions_state"`
}

// Capture runs cfg until the top of round haltRounds and freezes the
// engine there. When the run completes (or truncates) before the
// horizon there is nothing to capture: Capture returns the finished
// Result instead, with a nil Snapshot — exactly one of the two return
// values is non-nil on success.
//
// A configuration with an attached metrics or decision sink requires
// the sink to implement SnapshotState (the standard collector and
// recorder do); otherwise the mid-run sink state would be lost and the
// forked payload would silently miss the prefix.
func Capture(cfg Config, haltRounds int) (*Snapshot, *Result, error) {
	if haltRounds <= 0 {
		return nil, nil, fmt.Errorf("sim: capture horizon %d rounds, want >= 1", haltRounds)
	}
	eng, err := newEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	eng.haltAt = haltRounds
	res, err := eng.run()
	if err != nil {
		return nil, nil, err
	}
	if !eng.halted {
		return nil, res, nil
	}
	snap, err := eng.snapshot()
	if err != nil {
		return nil, nil, err
	}
	return snap, nil, nil
}

// snapshot freezes the halted engine's state into a Snapshot.
func (e *engine) snapshot() (*Snapshot, error) {
	s := &Snapshot{
		Rounds:      e.haltedRounds,
		Now:         e.haltedNow,
		RoundSec:    e.cfg.RoundSec,
		Topology:    e.cfg.Topology,
		NextArrival: e.nextArrival,
		SchedName:   e.cfg.Sched.Name(),
		PlacerName:  e.cfg.Placer.Name(),
	}
	s.Jobs = make([]JobState, e.nextArrival)
	for i, j := range e.jobs[:e.nextArrival] {
		s.Jobs[i] = JobState{
			ID:          j.Spec.ID,
			Model:       j.Spec.Model,
			Class:       int(j.Spec.Class),
			Arrival:     j.Spec.Arrival,
			Demand:      j.Spec.Demand,
			Work:        j.Spec.Work,
			Remaining:   j.Remaining,
			Alloc:       slices.Clone(j.Alloc),
			Attained:    j.Attained,
			Started:     j.Started,
			FirstRun:    j.FirstRun,
			Finish:      j.Finish,
			Done:        j.Done,
			Preemptions: j.Preemptions,
			Migrations:  j.Migrations,
			PrevAlloc:   slices.Clone(j.PrevAlloc),
		}
	}
	var err error
	if ss, ok := e.cfg.Sched.(SnapshotState); ok {
		if s.SchedState, err = ss.MarshalSnapshotState(); err != nil {
			return nil, fmt.Errorf("sim: snapshot scheduler %s: %w", e.cfg.Sched.Name(), err)
		}
	}
	if ps, ok := e.cfg.Placer.(SnapshotState); ok {
		if s.PlacerState, err = ps.MarshalSnapshotState(); err != nil {
			return nil, fmt.Errorf("sim: snapshot placer %s: %w", e.cfg.Placer.Name(), err)
		}
	}
	if e.cfg.Metrics != nil {
		ms, ok := e.cfg.Metrics.(SnapshotState)
		if !ok {
			return nil, fmt.Errorf("sim: metrics sink %T does not implement SnapshotState", e.cfg.Metrics)
		}
		if s.MetricsState, err = ms.MarshalSnapshotState(); err != nil {
			return nil, fmt.Errorf("sim: snapshot metrics sink: %w", err)
		}
	}
	if e.cfg.Decisions != nil {
		ds, ok := e.cfg.Decisions.(SnapshotState)
		if !ok {
			return nil, fmt.Errorf("sim: decision sink %T does not implement SnapshotState", e.cfg.Decisions)
		}
		if s.DecisionsState, err = ds.MarshalSnapshotState(); err != nil {
			return nil, fmt.Errorf("sim: snapshot decision sink: %w", err)
		}
	}
	return s, nil
}

// Resume reconstructs the engine at snap's horizon under cfg and runs it
// to completion. The target configuration must share the snapshot's
// cluster topology, round length and arrived trace prefix (the spec
// echoes are verified job by job); the workload suffix and the policy,
// scheduler and sink choices are free to differ — that is the fork.
//
// Policy state restores by name: a resumed component whose registry name
// matches the captured one gets its SnapshotState back (so a no-switch
// fork is byte-identical to the straight-through run); a switched
// component starts fresh. An attached sink must implement SnapshotState
// and have been attached at capture too, or the resumed payload would
// miss the prefix.
func Resume(cfg Config, snap *Snapshot) (*Result, error) {
	eng, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.restore(snap); err != nil {
		return nil, err
	}
	return eng.run()
}

// restore loads a snapshot into a freshly constructed engine.
func (e *engine) restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("sim: resume from nil snapshot")
	}
	if s.Completed {
		return fmt.Errorf("sim: snapshot is a completed-run sentinel; run from scratch instead")
	}
	if e.cfg.Topology != s.Topology {
		return fmt.Errorf("sim: resume topology %+v, snapshot captured %+v", e.cfg.Topology, s.Topology)
	}
	if e.cfg.RoundSec != s.RoundSec {
		return fmt.Errorf("sim: resume round_sec %g, snapshot captured %g", e.cfg.RoundSec, s.RoundSec)
	}
	if s.NextArrival != len(s.Jobs) {
		return fmt.Errorf("sim: snapshot carries %d job states, next_arrival %d", len(s.Jobs), s.NextArrival)
	}
	if s.NextArrival > len(e.jobs) {
		return fmt.Errorf("sim: snapshot arrived prefix has %d jobs, target trace has %d", s.NextArrival, len(e.jobs))
	}
	for i, js := range s.Jobs {
		j := e.jobs[i]
		if j.Spec.ID != js.ID || j.Spec.Model != js.Model || int(j.Spec.Class) != js.Class ||
			j.Spec.Arrival != js.Arrival || j.Spec.Demand != js.Demand || j.Spec.Work != js.Work {
			return fmt.Errorf("sim: trace prefix mismatch at job %d: snapshot captured id=%d model=%q class=%d arrival=%g demand=%d work=%g",
				i, js.ID, js.Model, js.Class, js.Arrival, js.Demand, js.Work)
		}
		j.Remaining = js.Remaining
		j.Alloc = slices.Clone(js.Alloc)
		j.Attained = js.Attained
		j.Started = js.Started
		j.FirstRun = js.FirstRun
		j.Finish = js.Finish
		j.Done = js.Done
		j.Preemptions = js.Preemptions
		j.Migrations = js.Migrations
		j.PrevAlloc = slices.Clone(js.PrevAlloc)
		if j.Alloc != nil {
			if j.Done {
				return fmt.Errorf("sim: snapshot job %d is done but still allocated", js.ID)
			}
			for _, g := range j.Alloc {
				if int(g) < 0 || int(g) >= e.cluster.Size() {
					return fmt.Errorf("sim: snapshot job %d allocation names GPU %d, cluster has %d", js.ID, g, e.cluster.Size())
				}
				if !e.cluster.IsFree(g) {
					return fmt.Errorf("sim: snapshot job %d allocation overlaps GPU %d (owner %d)", js.ID, g, e.cluster.Owner(g))
				}
			}
			e.cluster.Allocate(j.Spec.ID, j.Alloc)
			j.sd = e.slowdown(j)
		}
		if !j.Done {
			e.active = append(e.active, j)
		}
	}
	// The restore-time audit the tentpole promises: the replayed
	// allocations must leave the incremental occupancy indexes exactly
	// consistent before a single resumed round runs.
	if err := e.cluster.CheckInvariants(); err != nil {
		return fmt.Errorf("sim: resume: %w", err)
	}
	if !(s.Now == s.Now) || math.IsInf(s.Now, 0) {
		return fmt.Errorf("sim: snapshot clock %v is not finite", s.Now)
	}
	e.nextArrival = s.NextArrival
	if s.SchedState != nil && e.cfg.Sched.Name() == s.SchedName {
		ss, ok := e.cfg.Sched.(SnapshotState)
		if !ok {
			return fmt.Errorf("sim: scheduler %s carries snapshot state but does not implement SnapshotState", s.SchedName)
		}
		if err := ss.UnmarshalSnapshotState(s.SchedState); err != nil {
			return fmt.Errorf("sim: restore scheduler %s: %w", s.SchedName, err)
		}
	}
	if s.PlacerState != nil && e.cfg.Placer.Name() == s.PlacerName {
		ps, ok := e.cfg.Placer.(SnapshotState)
		if !ok {
			return fmt.Errorf("sim: placer %s carries snapshot state but does not implement SnapshotState", s.PlacerName)
		}
		if err := ps.UnmarshalSnapshotState(s.PlacerState); err != nil {
			return fmt.Errorf("sim: restore placer %s: %w", s.PlacerName, err)
		}
	}
	if e.cfg.Metrics != nil {
		if s.MetricsState == nil {
			return fmt.Errorf("sim: resume attaches a metrics sink but the snapshot captured none (the payload would miss the prefix)")
		}
		ms, ok := e.cfg.Metrics.(SnapshotState)
		if !ok {
			return fmt.Errorf("sim: metrics sink %T does not implement SnapshotState", e.cfg.Metrics)
		}
		if err := ms.UnmarshalSnapshotState(s.MetricsState); err != nil {
			return fmt.Errorf("sim: restore metrics sink: %w", err)
		}
	}
	if e.cfg.Decisions != nil {
		if s.DecisionsState == nil {
			return fmt.Errorf("sim: resume attaches a decision sink but the snapshot captured none (the trace would miss the prefix)")
		}
		ds, ok := e.cfg.Decisions.(SnapshotState)
		if !ok {
			return fmt.Errorf("sim: decision sink %T does not implement SnapshotState", e.cfg.Decisions)
		}
		if err := ds.UnmarshalSnapshotState(s.DecisionsState); err != nil {
			return fmt.Errorf("sim: restore decision sink: %w", err)
		}
	}
	e.resumed = true
	e.resumeNow = s.Now
	e.resumeRounds = s.Rounds
	if e.ctr != nil {
		e.ctr.SnapshotsResumed++
		e.ctr.ResumedRounds += int64(s.Rounds)
	}
	return nil
}
