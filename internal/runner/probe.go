package runner

import (
	"time"

	"repro/internal/sim"
)

// TaskOutcome classifies how a task's result was obtained: simulated on
// this process's CPU, served from one of the two cache tiers, or failed.
type TaskOutcome string

const (
	// OutcomeExecuted marks a task whose Run closure actually ran — a
	// simulation truly performed by this process.
	OutcomeExecuted TaskOutcome = "executed"
	// OutcomeMemoryHit marks a task served by the in-memory LRU tier,
	// including callers that waited on another caller's in-flight
	// computation (the same dedup sense CacheStats.Hits uses).
	OutcomeMemoryHit TaskOutcome = "memory-hit"
	// OutcomeStoreHit marks a task served by the persistent backend tier.
	OutcomeStoreHit TaskOutcome = "store-hit"
	// OutcomeSnapshotFork marks an executed task that resumed a shared
	// engine snapshot instead of simulating its warmup prefix from
	// scratch (Task.Forked reported true). Broken out from
	// OutcomeExecuted so a sweep's "simulated" count stays the number of
	// full from-scratch simulations.
	OutcomeSnapshotFork TaskOutcome = "snapshot-fork"
	// OutcomeError marks a task that returned an error, whichever path
	// produced it.
	OutcomeError TaskOutcome = "error"
)

// TaskSpan is the lifecycle record of one completed task: identity,
// outcome, which worker slot carried it, and its wall-clock extent.
// Spans carry wall-clock by design and therefore live strictly outside
// results, cache keys and byte-identity comparisons — the same
// treatment as sim.Result.PlaceTimes.
type TaskSpan struct {
	Key   string // content-addressed identity ("" = uncached)
	Label string
	// Worker is the pool slot (0..Workers-1) that carried the task. A
	// slot carries one task at a time across every concurrent Run
	// call on the pool, so one slot's spans never overlap.
	Worker  int
	Outcome TaskOutcome
	Err     error // non-nil iff Outcome == OutcomeError
	// Start and Duration span the whole task: cache lookups, backend
	// I/O and the Run closure. Run is the time inside the Run closure
	// alone (zero for cache hits), so Duration-Run approximates the
	// orchestration overhead around a simulation.
	Start    time.Time
	Duration time.Duration
	Run      time.Duration
	// Counters, when non-nil, are the engine introspection counters the
	// task's run populated (Task.Counters); set only for executed and
	// snapshot-fork outcomes. Like the span's clocks they are
	// regime-dependent by design and live outside results, cache keys
	// and byte-identity.
	Counters *sim.Counters
}

// Probe observes the orchestration layer: one ObserveTask call per
// completed task, from whichever worker goroutine carried it (so
// implementations must be safe for concurrent use). Probes are strictly
// observation-only — they see spans after the outcome is decided, must
// not mutate results, and must never influence scheduling; a probed
// sweep produces byte-identical tables to an unprobed one. The journal
// subsystem (internal/journal) is the implementation; the interface
// lives here so the dependency arrow keeps pointing downward.
type Probe interface {
	ObserveTask(TaskSpan)
}

// SetProbe attaches (or with nil detaches) the pool's task-lifecycle
// probe. Call it before the first Run; the pool reads the probe
// without synchronization once workers are running.
func (p *Pool) SetProbe(probe Probe) { p.probe = probe }
