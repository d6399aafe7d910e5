package sim

// Scheduler capability interfaces for the incremental engine core.
//
// The engine's round loop runs in four stepping regimes (documented in
// docs/ARCHITECTURE.md "Engine stepping"): the naive reference loop, the
// idle-gap skip, the sparse fast-forward, and the dense bulk advance.
// The dense regime — skipping busy rounds whose scheduling decision
// provably repeats the previous one even though jobs are waiting — needs
// two facts the Scheduler interface alone cannot supply: that the
// ordering is a strict total order the engine may maintain incrementally
// instead of re-sorting, and a per-job bound on how long the
// running/waiting partition stays put. Schedulers opt in by implementing
// the interfaces below; a scheduler that implements neither simply keeps
// the pre-incremental behavior (full re-sort every round, dense bulk
// advance only when nothing is waiting).

// TotalOrderScheduler is implemented by schedulers whose Order is the
// unique sequence induced by a strict total order over jobs. The
// contract: Less is irreflexive, transitive, and total (any two distinct
// jobs compare, typically via a final job-ID tiebreak), it depends on
// `now` and job state only through the values Order itself consults, and
// Order(jobs, now) returns exactly the jobs sorted by Less.
//
// The engine uses Less to keep its ordering alive across rounds: it
// merges arrivals and completions into the cached order and repairs it
// in place, which costs one O(n) pass when no priorities crossed.
// Because the order is total, every correct sort of a job set yields the
// same sequence, so the maintained one is identical to what a fresh
// Order call would return and the optimization cannot perturb results
// (the byte-identity suites pin this).
type TotalOrderScheduler interface {
	Scheduler
	Less(a, b *Job, now float64) bool
}

// PartitionStableScheduler is implemented by schedulers that can bound,
// per running job, how much attained service the job may accumulate
// before the scheduler's ordering could first interleave it with a
// waiting job (or move it across an internal queue boundary, which
// amounts to the same thing). This is the dense-trace generalization of
// the sparse fast-forward eligibility: with a sticky placer, no
// arrivals and no completions, the schedulable prefix — and therefore
// every placement decision — provably repeats while every running job's
// Attained stays strictly below its ceiling.
//
// AttainedCeilings fills ceilings[i] with the bound for running[i];
// math.Inf(1) means the partition can never flip on that job's account.
// It is only called with len(waiting) > 0 (the no-waiting case needs no
// scheduler cooperation) and may assume the engine-guaranteed invariant
// that every running job currently orders ahead of every waiting job.
// Waiting jobs are frozen during a bulk span (the engine only advances
// placed jobs), so their keys are constants. Bounds may be conservative
// (too small only costs skipped-span length, never correctness): the
// engine hands control back to the full loop — real sort, real prefix,
// real placement — before executing any round in which a running job's
// Attained has reached its ceiling.
type PartitionStableScheduler interface {
	Scheduler
	AttainedCeilings(running, waiting []*Job, ceilings []float64)
}

// FixpointPlacer is implemented by non-sticky placers whose placement
// rounds can reach a fixpoint: a round in which every placed job kept
// exactly its previous GPUs (no start, no resume, no migration). The
// contract: while the set of placed jobs is unchanged — no arrival into
// the schedulable prefix, no completion, no preemption — placing that
// set again, in any order, with each job's PrevAlloc equal to its
// current allocation, returns those same allocations and touches no
// state that a later round reads (no RNG draw, no clock or score
// dependence). FixpointStable reports whether the contract holds for
// the placer as configured; a placer may hold it only conditionally
// (PAL and PM-First lose it without hysteresis or over a scorer whose
// scores move at run time).
//
// The engine uses it exactly as it uses stickiness: after a fixpoint
// round it skips the placement phase while the prefix set is unchanged,
// and bulk advances through rounds that provably repeat it. The skipped
// PlaceRound calls are the only difference — Result.PlaceTimes gets
// fewer samples — so results stay byte-identical to the naive loop.
type FixpointPlacer interface {
	Placer
	FixpointStable() bool
}
