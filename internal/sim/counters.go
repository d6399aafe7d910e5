package sim

import "fmt"

// Counters is the engine's introspection layer: cheap integer counters
// populated by the round loop when Config.Counters is non-nil, exposing
// how the engine actually stepped — how many rounds each stepping
// regime covered, how often the incremental-ordering and
// placement-skip fast paths engaged, and how much work a snapshot
// resume avoided. They exist so performance claims about the fast
// paths can be explained from telemetry instead of asserted.
//
// Counters get the PlaceTimes/journal treatment: they are
// observation-only out-params living strictly OUTSIDE results, cache
// keys and byte-identity comparisons. Attaching a Counters must not
// change a single result byte (TestCountersDoNotPerturbSimulation pins
// this across all four stepping regimes) — but the counter values
// themselves differ across regimes *by design*: the naive reference
// loop materializes every round while the fast paths span over them,
// and that difference is exactly what the counters report.
//
// A Counters value is plain (non-atomic) state incremented by the
// engine's single goroutine: attach a distinct instance per run. The
// orchestration layer merges per-run instances with Add.
type Counters struct {
	// Rounds by stepping regime. Every round the engine simulates is
	// counted in exactly one of the four: materialized rounds ran the
	// full phase loop (admit, order, prefix, place, observe, advance);
	// idle-gap rounds were skipped because nothing was active; sparse
	// rounds were bulk-advanced with an empty waiting set (the sticky
	// fast-forward); dense rounds were bulk-advanced with waiters under
	// scheduler-provided attained-service ceilings.
	MaterializedRounds int64 `json:"materialized_rounds,omitempty"`
	IdleGapRounds      int64 `json:"idle_gap_rounds,omitempty"`
	SparseRounds       int64 `json:"sparse_rounds,omitempty"`
	DenseRounds        int64 `json:"dense_rounds,omitempty"`
	// Spans count the contiguous stretches the skipped rounds arrived
	// in (one observation each reaches the sinks).
	IdleGapSpans int64 `json:"idle_gap_spans,omitempty"`
	SparseSpans  int64 `json:"sparse_spans,omitempty"`
	DenseSpans   int64 `json:"dense_spans,omitempty"`

	// Incremental-ordering outcomes (TotalOrderScheduler fast path).
	// Every fast-path ordering is either a merge or a revalidation:
	// merges folded a membership change into the cached order (finished
	// jobs dropped, arrivals appended), revalidations found the
	// membership unchanged. Both then repair the order in place, which
	// costs one O(n) pass when no priorities crossed; re-sorts count the
	// repairs that found the order too scrambled and fell back to a full
	// sort. OrderFullCalls counts reference-path Scheduler.Order
	// invocations (naive loop or a scheduler without the capability
	// interface). The JSON names predate the merge path and stay, so
	// older journals still load.
	OrderMerges      int64 `json:"order_rebuilds,omitempty"`
	OrderRevalidated int64 `json:"order_revalidated,omitempty"`
	OrderResorts     int64 `json:"order_resorts,omitempty"`
	OrderFullCalls   int64 `json:"order_full_calls,omitempty"`

	// Placement-phase engagement on materialized rounds: skipped counts
	// rounds the dirty-set gate proved a no-op, run counts rounds that
	// entered place(). PlaceCalls counts actual Placer.PlaceRound
	// invocations (a run round with nothing needing GPUs makes none);
	// JobsPlaced sums the jobs handed to them.
	PlacementsSkipped int64 `json:"placements_skipped,omitempty"`
	PlacementsRun     int64 `json:"placements_run,omitempty"`
	PlaceCalls        int64 `json:"place_calls,omitempty"`
	JobsPlaced        int64 `json:"jobs_placed,omitempty"`

	// Scheduling churn and allocator traffic: preemptions deschedule a
	// running job, migrations change a running job's allocation,
	// AllocCalls counts the allocations the engine commits
	// (cluster.Claim), ReleaseCalls the ones it releases (a non-sticky
	// round releases all of its allocations with one cluster.Reset, and
	// counts each).
	Preemptions  int64 `json:"preemptions,omitempty"`
	Migrations   int64 `json:"migrations,omitempty"`
	AllocCalls   int64 `json:"alloc_calls,omitempty"`
	ReleaseCalls int64 `json:"release_calls,omitempty"`

	// Snapshot traffic: captures freeze this engine at a horizon,
	// resumes reconstruct it from one, and ResumedRounds is the prefix
	// length a resume started past. That is not a saving: the prefix
	// was simulated once, by the capture, and is shared only when more
	// than one cell resumes the same snapshot.
	SnapshotsCaptured int64 `json:"snapshots_captured,omitempty"`
	SnapshotsResumed  int64 `json:"snapshots_resumed,omitempty"`
	ResumedRounds     int64 `json:"resumed_rounds,omitempty"`
}

// TotalRounds is the number of rounds this engine actually stepped —
// the four regime counts, which partition them. For a fresh run it
// equals Result.Rounds; for a resumed run it equals Result.Rounds minus
// ResumedRounds (the prefix the snapshot carried).
func (c *Counters) TotalRounds() int64 {
	return c.MaterializedRounds + c.IdleGapRounds + c.SparseRounds + c.DenseRounds
}

// BulkRounds is the rounds covered by the two bulk-advance regimes.
func (c *Counters) BulkRounds() int64 { return c.SparseRounds + c.DenseRounds }

// Add folds o into c field-wise (the merge the journal reader uses to
// aggregate per-task counters across a sweep). o may be nil.
func (c *Counters) Add(o *Counters) {
	if o == nil {
		return
	}
	c.MaterializedRounds += o.MaterializedRounds
	c.IdleGapRounds += o.IdleGapRounds
	c.SparseRounds += o.SparseRounds
	c.DenseRounds += o.DenseRounds
	c.IdleGapSpans += o.IdleGapSpans
	c.SparseSpans += o.SparseSpans
	c.DenseSpans += o.DenseSpans
	c.OrderMerges += o.OrderMerges
	c.OrderRevalidated += o.OrderRevalidated
	c.OrderResorts += o.OrderResorts
	c.OrderFullCalls += o.OrderFullCalls
	c.PlacementsSkipped += o.PlacementsSkipped
	c.PlacementsRun += o.PlacementsRun
	c.PlaceCalls += o.PlaceCalls
	c.JobsPlaced += o.JobsPlaced
	c.Preemptions += o.Preemptions
	c.Migrations += o.Migrations
	c.AllocCalls += o.AllocCalls
	c.ReleaseCalls += o.ReleaseCalls
	c.SnapshotsCaptured += o.SnapshotsCaptured
	c.SnapshotsResumed += o.SnapshotsResumed
	c.ResumedRounds += o.ResumedRounds
}

// Summary renders the human one-liner palsim and palsweep print: the
// regime mix, the placement-skip rate, churn, and snapshot resumes.
func (c *Counters) Summary() string {
	total := c.TotalRounds()
	if total == 0 {
		return "engine: 0 rounds"
	}
	pct := func(n int64) float64 { return 100 * float64(n) / float64(total) }
	s := fmt.Sprintf("engine: %d rounds (%.1f%% materialized, %.1f%% idle-gap, %.1f%% sparse-ff, %.1f%% dense-bulk)",
		total, pct(c.MaterializedRounds), pct(c.IdleGapRounds), pct(c.SparseRounds), pct(c.DenseRounds))
	if gated := c.PlacementsRun + c.PlacementsSkipped; gated > 0 {
		s += fmt.Sprintf("; placement skipped %.0f%%", 100*float64(c.PlacementsSkipped)/float64(gated))
	}
	if c.Preemptions > 0 || c.Migrations > 0 {
		s += fmt.Sprintf("; %d preemptions, %d migrations", c.Preemptions, c.Migrations)
	}
	if c.SnapshotsResumed > 0 {
		s += fmt.Sprintf("; %d snapshot resumes started past %d prefix rounds", c.SnapshotsResumed, c.ResumedRounds)
	}
	return s
}
