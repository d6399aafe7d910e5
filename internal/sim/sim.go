// Package sim implements the round-based cluster-scheduling engine the
// policies are evaluated in. It mirrors the modular architecture of Blox
// (§II-B, Fig. 1): an admission-control step feeds a job queue; a
// scheduling policy orders the active jobs each round; the engine marks
// the queue at cluster size; and a placement policy maps the schedulable
// prefix to concrete GPUs. Jobs progress under the combined
// locality × variability slowdown of Equation 1.
//
// The engine is deterministic for a given configuration: wall-clock time
// is only sampled to report placement-policy overhead (Fig. 18) and never
// feeds back into scheduling decisions.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// Job is the engine's mutable view of one trace job.
type Job struct {
	Spec trace.JobSpec

	// Remaining ideal work in seconds (starts at Spec.Work).
	Remaining float64
	// Alloc is the job's current GPU allocation, nil when not running.
	// Its array is engine storage that a later placement rewrites: a
	// re-placed job's Alloc becomes its PrevAlloc, and the placement
	// after that copies the new pick into the same array. A reader that
	// keeps the GPUs past the callback or round in which it read them
	// copies the slice. The engine caches the allocation's slowdown
	// beside it (sd), so only the engine assigns Alloc.
	Alloc []cluster.GPUID
	// Attained is the accumulated service in GPU-seconds (wall seconds
	// running × demand), the quantity Tiresias's LAS discretizes.
	Attained float64
	// Started reports whether the job has ever run.
	Started bool
	// FirstRun is the time the job first received GPUs.
	FirstRun float64
	// Finish is the completion time (valid once Done).
	Finish float64
	// Done reports whether the job has completed.
	Done bool
	// Preemptions counts times the job was descheduled while incomplete.
	Preemptions int
	// Migrations counts rounds in which a running job's allocation
	// changed (non-sticky placement reshuffles).
	Migrations int

	// PrevAlloc is the allocation the job held before the current
	// placement call (nil if it was not running). Placement policies may
	// use it for hysteresis: PM-First and PAL re-use it unless a strictly
	// better allocation exists, avoiding gratuitous migrations. Its array
	// is engine storage that a later round's allocation reuses: a policy
	// reads it during PlaceRound and never retains it (see Placer).
	PrevAlloc []cluster.GPUID

	// sd caches Equation 1's slowdown for Alloc: place sets it when the
	// job receives a new or migrated allocation, a kept allocation keeps
	// it, and it is zero whenever Alloc is nil. advance, bulkAdvance and
	// observe read it instead of re-evaluating the allocation every
	// round; it equals slowdown(j) bit for bit, because the slowdown is
	// a function of the allocation's GPU set alone.
	sd float64
	// migrated marks that the allocation changed this round, charging
	// the migration penalty during advance.
	migrated bool
	// inPrefix and wasRunning are round-local scratch marks used by the
	// placement phase in lieu of per-round map allocations. Both are
	// always false outside place(), so results stay comparable with
	// reflect.DeepEqual across engine paths.
	inPrefix   bool
	wasRunning bool
}

// JCT returns the job's completion time minus its arrival (valid once Done).
func (j *Job) JCT() float64 { return j.Finish - j.Spec.Arrival }

// Wait returns the job's total queueing delay (valid once Done):
// completion minus arrival minus the wall-clock time actually spent
// running. Under preemptive schedulers this includes time suspended
// after demotion — the quantity the paper's wait-time plots report
// (Figs. 12 and 19): LAS shows large waits exactly because demoted jobs
// requeue long after they first ran.
func (j *Job) Wait() float64 {
	if j.Spec.Demand <= 0 {
		return 0
	}
	w := j.JCT() - j.Attained/float64(j.Spec.Demand)
	if w < 0 {
		return 0
	}
	return w
}

// FirstRunDelay returns the time from arrival to first receiving GPUs.
func (j *Job) FirstRunDelay() float64 { return j.FirstRun - j.Spec.Arrival }

// Scheduler orders active jobs each round by scheduling priority (job
// selection). Implementations must return a permutation of jobs; the
// engine schedules the longest prefix that fits the cluster.
type Scheduler interface {
	Name() string
	Order(jobs []*Job, now float64) []*Job
}

// Placer maps the schedulable prefix of jobs to GPUs (resource
// allocation). PlaceRound is called once per round with the jobs that
// need a (new) allocation, in scheduling-priority order; the cluster's
// free state already excludes GPUs retained by sticky jobs. The returned
// map must assign each job exactly Spec.Demand free GPUs. The need
// slice is engine-owned scratch, valid only for the duration of the
// call — copy it if the policy retains state across rounds. The engine
// reads the returned map before the next PlaceRound call, so a policy
// may reuse one map across rounds, and the allocation slices in it
// too: the engine copies every allocation into storage of its own, so a
// returned slice need only stay valid until the next PlaceRound call —
// placer scratch, a sub-slice of one shared arena, or a job's own
// PrevAlloc handed back unchanged. Job.PrevAlloc, in turn, is engine
// storage that a later round reuses: read it during the call, and never
// retain it.
//
// Sticky reports the placement flavor (§IV-A1): sticky placers keep a
// running job's allocation until it completes or is preempted; non-sticky
// placers re-place every running job every round (a FixpointPlacer lets
// the engine skip the rounds that provably repeat).
type Placer interface {
	Name() string
	Sticky() bool
	PlaceRound(c *cluster.Cluster, need []*Job, now float64) map[int][]cluster.GPUID
}

// Admission decides whether an arriving job enters the queue. The paper's
// experiments admit everything that can ever fit; admission control is
// part of the Blox architecture, so the hook exists.
type Admission interface {
	Name() string
	Admit(job *Job, c *cluster.Cluster) bool
}

// AdmitAll admits every job. The zero value is ready to use.
type AdmitAll struct{}

// Name implements Admission.
func (AdmitAll) Name() string { return "admit-all" }

// Admit implements Admission.
func (AdmitAll) Admit(*Job, *cluster.Cluster) bool { return true }

// AdmitFits rejects jobs whose demand exceeds the cluster size (they
// could never be scheduled and would wedge a strict FIFO prefix).
type AdmitFits struct{}

// Name implements Admission.
func (AdmitFits) Name() string { return "admit-fits" }

// Admit implements Admission.
func (AdmitFits) Admit(j *Job, c *cluster.Cluster) bool {
	return j.Spec.Demand <= c.Size()
}

// Config assembles one simulation.
type Config struct {
	Topology cluster.Topology
	Trace    *trace.Trace
	Sched    Scheduler
	Placer   Placer
	// Admit defaults to AdmitFits when nil.
	Admit Admission

	// TrueProfile provides the PM scores jobs actually experience
	// (Equation 1). The placement policy may consult a different
	// (profiled, possibly stale) view — that coupling happens at placer
	// construction, not here.
	TrueProfile *vprof.Profile

	// Lacross is the inter-node locality penalty (L_within is 1.0).
	Lacross float64
	// ModelLacross optionally overrides Lacross per model name, matching
	// the per-model penalties of §IV-D. Missing models fall back to
	// Lacross.
	ModelLacross map[string]float64
	// Lrack is an optional third locality level (extension beyond the
	// paper's two-level model): the penalty for spanning nodes within one
	// rack, with Lacross charged only when the allocation spans racks.
	// Zero disables the rack level (two-level model). Requires
	// Topology.NodesPerRack > 0 to have any effect.
	Lrack float64

	// RoundSec is the scheduling-round length (the paper uses 300 s).
	// Defaults to 300 when zero.
	RoundSec float64

	// MaxRounds caps the simulation as a runaway guard. Defaults to
	// 1_000_000 rounds when zero (at the default 300 s round that is
	// ~9.5 simulated years). Hitting the cap is not an error: the run
	// stops, Result.Truncated is set, and Result.Unfinished counts the
	// jobs that never completed, so a sweep over extreme configurations
	// degrades to an explicitly-flagged partial table instead of losing
	// the whole run.
	MaxRounds int

	// MeasureFirst/MeasureLast restrict per-job metrics to a job-ID
	// window (Synergy steady state uses 2000-3000). Zero values mean the
	// whole trace.
	MeasureFirst, MeasureLast int

	// MigrationPenaltySec is the checkpoint/restore cost a running job
	// pays in a round where its allocation changed (§IV-A1 notes these
	// overheads exist but are small relative to job runtime). A migrated
	// job makes progress for RoundSec - MigrationPenaltySec of the round.
	MigrationPenaltySec float64

	// Observer, when non-nil, receives each running job's realized
	// slowdown every round. This is the hook for the online PM-score
	// re-profiling extension (§V-A closes by calling for "dynamic online
	// updates to GPU PM-Scores"): an observing scorer can learn that a
	// GPU is slower than its static profile claims.
	//
	// Observer is the SLOW compatibility path: its contract is one
	// callback per running job per round, so attaching one disables
	// fast-forwarding and the run pays the naive loop's full cost. Use it
	// only when the consumer genuinely needs to react inside the round
	// loop (the online re-profiling scorer does). New instrumentation —
	// time series, histograms, lifecycle records — belongs on the Metrics
	// hook below, whose span-based contract keeps dead-time skipping
	// intact.
	Observer Observer

	// Metrics, when non-nil, receives span-based telemetry through the
	// fast-forward-safe MetricsSink contract (metrics.Collector is the
	// standard implementation). Unlike Observer, attaching a sink does
	// NOT disable dead-time skipping: during a fast-forwarded span the
	// engine hands the sink the span length and the frozen per-job state
	// in one call, and the sink integrates analytically. The sink is
	// echoed on Result.Metrics so cached results carry their telemetry.
	Metrics MetricsSink

	// Decisions, when non-nil, receives span-based decision traces —
	// scheduler order, partition-stability ceilings, placement score
	// decompositions, preemptions — through the fast-forward-safe
	// DecisionSink contract (decision.Recorder is the standard
	// implementation). Like Metrics and unlike Observer, attaching a
	// sink does NOT disable dead-time skipping: frozen stretches arrive
	// as single spans that provably repeat the previous decision. The
	// sink is echoed on Result.Decisions so cached results carry their
	// traces.
	Decisions DecisionSink

	// Counters, when non-nil, receives the engine's introspection
	// counters: rounds per stepping regime, fast-path engagement,
	// allocator traffic, snapshot capture/resume (see Counters). They
	// are an observation-only out-param with zero cost when nil —
	// attaching one leaves Result byte-identical
	// (TestCountersDoNotPerturbSimulation) — but the values themselves
	// are regime-dependent by design, so they live outside results,
	// cache keys and byte-identity comparisons (the PlaceTimes/journal
	// treatment). Attach a distinct instance per run: the engine
	// increments it without atomics.
	Counters *Counters

	// DisableFastForward forces the engine to iterate every round even
	// when nothing can change (no arrival, no finish, no reallocation).
	// Fast-forwarding is byte-identical to naive iteration — the
	// equivalence test in fastforward_test.go pins that down — so this
	// switch exists only for that test and for benchmarking the naive
	// loop.
	DisableFastForward bool
}

// RoundObservation describes a span of one or more consecutive rounds
// during which the running set, every allocation and every slowdown were
// provably constant. A normal engine round is a span of length 1; a
// fast-forwarded stretch (or an idle gap with nothing running) arrives as
// one observation covering all its rounds. The engine guarantees that
// every simulated round is covered by exactly one observation, in time
// order, so a sink reconstructs the full per-round series by expanding
// spans — and the naive and fast-forwarded engines produce byte-identical
// observation streams.
type RoundObservation struct {
	// Start is the engine clock at the span's first round; successive
	// rounds follow at RoundSec intervals. Sinks that need per-round
	// times must advance by repeated `t += RoundSec` addition — the
	// operation the engine itself performs — so reconstructed times match
	// the naive loop bit for bit.
	Start    float64
	RoundSec float64
	// Rounds is the span length (>= 1).
	Rounds int
	// Running lists the jobs holding GPUs during the span, sorted by job
	// ID (a canonical order independent of scheduler priority, so
	// order-sensitive float accumulation in sinks cannot diverge between
	// the naive and fast-forwarded paths). The slice is scratch space
	// owned by the engine: valid only during the call.
	Running []*Job
	// Slowdowns[i] is Running[i]'s Equation-1 multiplier for the span.
	Slowdowns []float64
	// Waiting counts active jobs without GPUs (always 0 inside a
	// fast-forwarded span).
	Waiting int
}

// MetricsSink receives aggregated telemetry from the engine. Implementors
// must be pure observers: a sink must not mutate jobs, draw from any RNG
// shared with the simulation, or otherwise perturb engine state —
// attaching one must leave Result byte-identical (the metrics
// determinism tests pin this).
type MetricsSink interface {
	// ObserveRounds is called once per span, in time order.
	ObserveRounds(o RoundObservation)
	// FinishRun is called exactly once, after the engine assembled the
	// Result (with Result.Metrics already pointing at this sink), so the
	// sink can derive lifecycle records and distributions from the final
	// per-job state.
	FinishRun(res *Result)
}

// Observer receives per-round execution feedback. ObserveRound is called
// once per running job per round with the job's allocation still
// attached and each GPU's normalized per-rank step time — the rank's
// compute time divided by the job's ideal iteration time, i.e. the GPU's
// realized PM score for the job's class. Per-rank step times are directly
// observable in bulk-synchronous training (every rank logs its compute
// time before the gradient exchange), which is what makes online
// re-profiling deployable. perGPU[i] corresponds to j.Alloc[i] and
// excludes the locality penalty. j.Alloc is engine storage that a later
// placement rewrites: copy it to keep it past the call (see Job.Alloc).
type Observer interface {
	ObserveRound(j *Job, perGPU []float64, now float64)
}

// withDefaults returns a copy of cfg with zero fields defaulted.
func (cfg Config) withDefaults() Config {
	if cfg.RoundSec <= 0 {
		cfg.RoundSec = 300
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 1_000_000
	}
	if cfg.Admit == nil {
		cfg.Admit = AdmitFits{}
	}
	if cfg.Lacross <= 0 {
		cfg.Lacross = 1.0
	}
	return cfg
}

// Result carries everything the experiment harness needs from one run.
type Result struct {
	Jobs []*Job // all jobs, trace order

	// Measured is the subset of Jobs inside the measurement window that
	// completed; aggregate metrics are computed over it.
	Measured []*Job

	Makespan    float64 // last finish - first arrival (whole trace)
	Utilization float64 // allocated GPU-seconds / (cluster size × active span)
	// ProductiveUtilization divides *ideal* GPU-seconds (demand × work)
	// by capacity × span: the fraction of cluster capacity that performed
	// useful work. The gap between Utilization and ProductiveUtilization
	// is exactly the capacity lost to variability and locality slowdowns
	// — gang-synchronous jobs hold all their GPUs at the pace of the
	// slowest one (§II-A).
	ProductiveUtilization float64
	Rounds                int

	// PlaceTimes holds the wall-clock duration of each round's placement
	// call in seconds (only rounds that placed at least one job).
	PlaceTimes []float64

	// Metrics echoes Config.Metrics after the run, so a Result pulled
	// from the runner's cache still carries the telemetry collected when
	// it was first computed. Nil when no sink was attached.
	Metrics MetricsSink

	// Decisions echoes Config.Decisions after the run, so a Result
	// pulled from the runner's cache still carries the decision trace
	// recorded when it was first computed. Nil when no sink was
	// attached.
	Decisions DecisionSink

	// Truncated reports that the run stopped at Config.MaxRounds with
	// jobs still incomplete. Aggregate metrics then cover only the jobs
	// that finished; Unfinished counts the rest. Consumers that archive
	// or tabulate results must surface this flag — a truncated run is a
	// different quantity than a completed one.
	Truncated bool
	// Unfinished is the number of jobs that had not completed when the
	// run ended (always 0 unless Truncated).
	Unfinished int
}

// JCTs returns the measured jobs' completion times.
func (r *Result) JCTs() []float64 {
	out := make([]float64, len(r.Measured))
	for i, j := range r.Measured {
		out[i] = j.JCT()
	}
	return out
}

// Waits returns the measured jobs' queueing delays.
func (r *Result) Waits() []float64 {
	out := make([]float64, len(r.Measured))
	for i, j := range r.Measured {
		out[i] = j.Wait()
	}
	return out
}

// MultiGPUJCTs returns JCTs of measured jobs with demand > 1 (the subset
// §V-C reports separately).
func (r *Result) MultiGPUJCTs() []float64 {
	var out []float64
	for _, j := range r.Measured {
		if j.Spec.Demand > 1 {
			out = append(out, j.JCT())
		}
	}
	return out
}

// Run executes the simulation to completion and returns its Result. It
// returns an error if the configuration is invalid; hitting MaxRounds is
// reported through Result.Truncated, not as an error.
//
// The engine fast-forwards through dead time: a round in which no job
// arrives, finishes, or changes allocation is a pure progress round, and
// under a sticky placement policy the engine proves that ahead of time
// and applies the per-job progress updates directly — skipping the
// scheduler sort, prefix marking and placement machinery — until the
// next state-changing round. The arithmetic performed per job per round
// is exactly the naive loop's, in the same order, so results are
// byte-identical (fastforward_test.go enforces this). Non-sticky
// placers re-place every running job every round by definition — that
// per-round re-roll is the behaviour §V-B measures — so they take the
// naive path, except that a FixpointPlacer (PAL, PM-First) skips rounds
// after one in which every placed job kept its GPUs, until the prefix
// set changes. Any run with an Observer attached takes the naive path.
func Run(cfg Config) (*Result, error) {
	eng, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return eng.run()
}

// newEngine validates the configuration and assembles a fresh engine
// with every job at its initial state (the shared front half of Run and
// Capture).
func newEngine(cfg Config) (*engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Trace == nil || len(cfg.Trace.Jobs) == 0 {
		return nil, fmt.Errorf("sim: empty trace")
	}
	if cfg.Sched == nil || cfg.Placer == nil {
		return nil, fmt.Errorf("sim: scheduler and placer are required")
	}
	if cfg.TrueProfile == nil {
		return nil, fmt.Errorf("sim: TrueProfile is required")
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.TrueProfile.NumGPUs() < cfg.Topology.Size() {
		return nil, fmt.Errorf("sim: profile covers %d GPUs, cluster has %d",
			cfg.TrueProfile.NumGPUs(), cfg.Topology.Size())
	}

	c := cluster.New(cfg.Topology)
	jobs := make([]*Job, len(cfg.Trace.Jobs))
	for i, spec := range cfg.Trace.Jobs {
		jobs[i] = &Job{Spec: spec, Remaining: spec.Work}
	}
	fp, ok := cfg.Placer.(FixpointPlacer)
	return &engine{
		cfg:     cfg,
		cluster: c,
		jobs:    jobs,
		ctr:     cfg.Counters,
		// The fixpoint regime needs every skipped placement to be
		// unobservable: the naive reference loop, an Observer (one
		// callback per job per round) and a decision sink (non-sticky
		// placements are traced every round) keep the placer on every
		// round.
		fixpointGate: ok && fp.FixpointStable() && !cfg.DisableFastForward &&
			cfg.Observer == nil && cfg.Decisions == nil,
	}, nil
}

// engine holds the per-run mutable state.
type engine struct {
	cfg     Config
	cluster *cluster.Cluster
	jobs    []*Job

	// ctr is the optional introspection out-param (Config.Counters);
	// every increment is guarded on nil so the counters cost nothing
	// when unattached.
	ctr *Counters

	nextArrival int    // index of the next not-yet-arrived trace job
	active      []*Job // arrived, admitted, not finished
	rejected    int

	// Incremental-ordering state: ordered caches the previous round's
	// scheduling order; membershipChanged marks that the active set
	// gained or lost jobs since it was built, so the next ordering
	// merges the change in (mergeOrder) before repairing.
	ordered           []*Job
	membershipChanged bool

	// Placement-fixpoint state (see FixpointPlacer). fixpointGate is
	// fixed at construction: the placer declares stable fixpoints and no
	// consumer needs every round placed. fixpoint reports that the last
	// placement kept every placed job on its previous GPUs and no job
	// has completed since, so the allocations in force repeat for as
	// long as the prefix set holds. A resumed engine starts with it
	// false and re-derives it from its first placement.
	fixpointGate bool
	fixpoint     bool

	placeTimes []float64

	// Scratch buffers reused across rounds so the steady-state loop
	// allocates nothing: metrics observations, the placement need list
	// with the allocation storage each need job retires (see place), and
	// the bulk-advance partition/ceiling workspaces.
	obsJobs  []*Job
	obsSds   []float64
	needBuf  []*Job
	spareBuf [][]cluster.GPUID
	runBuf   []*Job
	waitBuf  []*Job
	ceilBuf  []float64

	// Decision-trace scratch: the per-round placement/preemption
	// decisions collected by place() for the decision sink, and a
	// ceiling workspace separate from ceilBuf (the bulk-advance span may
	// still be using that one when the next materialized round records
	// its ceilings).
	decPlace   []PlacementDecision
	decPreempt []PreemptionDecision
	decCeilBuf []float64

	// Snapshot state (see snapshot.go). haltAt, when positive, stops the
	// run loop at the top of round haltAt so Capture can freeze the
	// engine; halted reports that the stop fired (with the clocks it
	// fired at) rather than the run completing. resumed marks an engine
	// reconstructed by Resume: the run loop then starts from the
	// restored clocks instead of round 0.
	haltAt       int
	halted       bool
	haltedNow    float64
	haltedRounds int
	resumed      bool
	resumeNow    float64
	resumeRounds int
}

// haltsAt reports whether the snapshot horizon stops the run at the top
// of round r (0 disables halting).
func (e *engine) haltsAt(r int) bool { return e.haltAt > 0 && r >= e.haltAt }

// observe hands one span to the metrics sink, with the running set
// canonicalized to job-ID order (see RoundObservation.Running). running
// may be in any order; each slowdown is the job's cached Job.sd, a pure
// function of its unchanged allocation, so the naive and fast-forwarded
// paths hand over bit-identical values.
func (e *engine) observe(start float64, rounds int, running []*Job, waiting int) {
	if e.cfg.Metrics == nil || rounds <= 0 {
		return
	}
	e.obsJobs = append(e.obsJobs[:0], running...)
	slices.SortFunc(e.obsJobs, func(a, b *Job) int { return a.Spec.ID - b.Spec.ID })
	if cap(e.obsSds) < len(e.obsJobs) {
		e.obsSds = make([]float64, len(e.obsJobs))
	}
	e.obsSds = e.obsSds[:len(e.obsJobs)]
	for i, j := range e.obsJobs {
		e.obsSds[i] = j.sd
	}
	e.cfg.Metrics.ObserveRounds(RoundObservation{
		Start:     start,
		RoundSec:  e.cfg.RoundSec,
		Rounds:    rounds,
		Running:   e.obsJobs,
		Slowdowns: e.obsSds,
		Waiting:   waiting,
	})
}

// run drives the engine through its stepping regimes. Each loop
// iteration is one *full* round broken into explicit phases — admit,
// order, mark prefix, place, observe, advance — with dirty-set tracking
// between them: ordering is recomputed only when membership or
// priorities actually moved, and placement only runs when arrivals,
// completions or preemptions changed the waiting set or occupancy.
// After each full round the engine computes an event horizon and bulk
// advances through every following round that provably repeats the
// decision just made (see bulkAdvance); rounds with nothing active at
// all skip straight to the next arrival (idle gap). The naive reference
// loop — every phase, every round — is retained behind
// Config.DisableFastForward and pins all of this via byte-identity
// tests.
func (e *engine) run() (*Result, error) {
	cfg := e.cfg
	now := 0.0
	if len(e.jobs) > 0 {
		// Start the clock at the first arrival so empty leading time does
		// not distort utilization.
		now = e.jobs[0].Spec.Arrival
	}
	start := now
	rounds := 0
	remaining := len(e.jobs)
	truncated := false
	e.membershipChanged = true
	if e.resumed {
		// Resume from a snapshot: the clocks restart at the captured
		// values (now carries the exact accumulated-float bits, so the
		// round grid continues bit-identically); start stays the first
		// arrival, and remaining excludes jobs already finished or
		// rejected before the horizon.
		now, rounds = e.resumeNow, e.resumeRounds
		remaining = 0
		for _, j := range e.jobs {
			if !j.Done {
				remaining++
			}
		}
		// Mid-gap boundary: a snapshot taken inside an idle gap whose next
		// arrival lands exactly on the restored clock must replay the gap
		// loop's closing round before admitting — the gap path admits an
		// on-grid arrival one round after its arrival time, while the
		// loop's admission phase would admit it immediately. One empty
		// 1-round span keeps the observation stream identical (sinks
		// coalesce it into the straight-through run's single gap span).
		if remaining > 0 && len(e.active) == 0 && e.nextArrival < len(e.jobs) &&
			e.jobs[e.nextArrival].Spec.Arrival == now {
			e.observe(now, 1, nil, 0)
			e.observeDecisionSpan(now, 1, nil, 0)
			now += cfg.RoundSec
			rounds++
			// The replay round counts as idle-gap so TotalRounds() stays
			// exactly Result.Rounds - ResumedRounds.
			if e.ctr != nil {
				e.ctr.IdleGapRounds++
				e.ctr.IdleGapSpans++
			}
		}
	}

	for remaining > 0 {
		// Snapshot horizon: freeze the engine at the top of round haltAt,
		// before this round's admissions — the capture point Resume
		// re-enters the loop at.
		if e.haltsAt(rounds) {
			e.halted = true
			e.haltedNow, e.haltedRounds = now, rounds
			if e.ctr != nil {
				e.ctr.SnapshotsCaptured++
			}
			return nil, nil
		}

		// Truncation guard.
		if rounds >= cfg.MaxRounds {
			truncated = true
			break
		}

		// Admission phase: arrivals enter the active set.
		before := len(e.active)
		e.admitArrivals(now)
		if len(e.active) != before {
			e.membershipChanged = true
		}
		if e.rejected > 0 {
			remaining -= e.rejected
			e.rejected = 0
			if remaining <= 0 {
				break
			}
		}

		if len(e.active) == 0 {
			// Idle gap: jump to the next arrival instead of spinning rounds.
			if e.nextArrival < len(e.jobs) {
				next := e.jobs[e.nextArrival].Spec.Arrival
				idleStart, idleFrom := now, rounds
				// Advance in whole rounds to keep the round grid stable
				// (bailing at MaxRounds so an absurd gap cannot spin past
				// the cap before the top-of-loop truncation check, and at
				// the snapshot horizon so a capture lands exactly on its
				// round).
				for now+cfg.RoundSec <= next && rounds < cfg.MaxRounds && !e.haltsAt(rounds) {
					now += cfg.RoundSec
					rounds++
				}
				if !e.haltsAt(rounds) {
					now += cfg.RoundSec
					rounds++
				}
				// The whole gap is one empty span: nothing runs, nothing
				// waits (the arriving job is admitted next iteration).
				if e.ctr != nil {
					if n := rounds - idleFrom; n > 0 {
						e.ctr.IdleGapRounds += int64(n)
						e.ctr.IdleGapSpans++
					}
				}
				e.observe(idleStart, rounds-idleFrom, nil, 0)
				e.observeDecisionSpan(idleStart, rounds-idleFrom, nil, 0)
				continue
			}
			// Nothing active and nothing arriving: only rejected jobs
			// remain.
			break
		}

		// Ordering phase (incremental when the scheduler exposes a total
		// order and membership is unchanged).
		ordered, err := e.orderActive(now)
		if err != nil {
			return nil, err
		}

		// Prefix phase: mark the queue at cluster size.
		prefix := schedulablePrefix(ordered, e.cluster.Size())

		// Placement phase, skipped when provably a no-op (sticky placer,
		// occupancy already matching the prefix).
		if !e.placementClean(prefix) {
			if e.ctr != nil {
				e.ctr.PlacementsRun++
			}
			if err := e.place(prefix, now); err != nil {
				return nil, err
			}
		} else if e.ctr != nil {
			e.ctr.PlacementsSkipped++
		}

		// Observe before advance: completions inside the round release
		// allocations, and the observation covers the round as scheduled.
		e.observe(now, 1, prefix, len(e.active)-len(prefix))
		e.observeDecisionRound(now, ordered, len(prefix))

		// Advance phase.
		finished := e.advance(prefix, now)
		remaining -= finished
		if finished > 0 {
			e.membershipChanged = true
		}

		now += cfg.RoundSec
		rounds++
		if e.ctr != nil {
			e.ctr.MaterializedRounds++
		}

		// Event-horizon phase: bulk advance through rounds that provably
		// repeat the decision above. A finishing round must re-enter the
		// full loop first when jobs are waiting — freed GPUs can admit a
		// waiter next round — so bulk advance re-checks eligibility
		// itself. With a decision sink attached, a finishing round
		// always re-enters the full loop first, so the span following a
		// completion opens with a materialized round carrying the fresh
		// scheduler order — the one extra round per completion keeps the
		// recorded trace byte-identical to the naive loop's, and the
		// materialized round itself is byte-identical to the first round
		// the bulk span would have skipped.
		if finished == 0 || (cfg.Decisions == nil && e.allActiveRunning()) {
			now, rounds = e.bulkAdvance(now, rounds)
		}
	}

	res, err := e.result(start, now, rounds)
	if err != nil {
		return nil, err
	}
	if truncated {
		res.Truncated = true
	}
	// Finalize the sinks last, so they see the complete result —
	// including the truncation flag, which they must carry into their
	// payloads.
	if cfg.Metrics != nil {
		cfg.Metrics.FinishRun(res)
	}
	if cfg.Decisions != nil {
		cfg.Decisions.FinishRun(res)
	}
	return res, nil
}

// orderActive produces this round's scheduling order. The reference path
// calls Scheduler.Order every round. The incremental path — taken when
// fast-forwarding is enabled and the scheduler exposes its strict total
// order (TotalOrderScheduler) — maintains one reused buffer across
// rounds: after a membership change it merges the cached order with the
// active set (mergeOrder), and every round it repairs the buffer in
// place (repairOrder), which costs one O(n) pass when no priorities
// crossed. Because the order is total (Less never reports two distinct
// jobs equal), every correct sort of the same jobs yields the same
// sequence, so the maintained order is exactly what a fresh Order call
// would return — the byte-identity suites compare it against the
// reference path.
func (e *engine) orderActive(now float64) ([]*Job, error) {
	cfg := e.cfg
	if !cfg.DisableFastForward {
		if ts, ok := cfg.Sched.(TotalOrderScheduler); ok {
			if e.membershipChanged || e.ordered == nil {
				e.mergeOrder()
				e.membershipChanged = false
				if e.ctr != nil {
					e.ctr.OrderMerges++
				}
			} else if e.ctr != nil {
				e.ctr.OrderRevalidated++
			}
			if !repairOrder(e.ordered, ts, now) && e.ctr != nil {
				e.ctr.OrderResorts++
			}
			return e.ordered, nil
		}
	}
	ordered := cfg.Sched.Order(e.active, now)
	if e.ctr != nil {
		e.ctr.OrderFullCalls++
	}
	if len(ordered) != len(e.active) {
		return nil, fmt.Errorf("sim: scheduler %s returned %d jobs, want %d",
			cfg.Sched.Name(), len(ordered), len(e.active))
	}
	e.ordered = ordered
	e.membershipChanged = false
	return ordered, nil
}

// mergeOrder brings the cached order's membership up to date with the
// active set: it drops the jobs that finished since the order was last
// built and appends the jobs admitted since. Jobs leave the active set
// only by finishing, advance's compaction keeps the survivors in place,
// and admitArrivals appends, so the admitted jobs are exactly the tail
// of e.active past the survivors. The result is unsorted only where
// priorities moved or new jobs landed; repairOrder finishes the job.
func (e *engine) mergeOrder() {
	kept := e.ordered[:0]
	for _, j := range e.ordered {
		if !j.Done {
			kept = append(kept, j)
		}
	}
	e.ordered = append(kept, e.active[len(kept):]...)
}

// repairOrder sorts ord by the scheduler's strict total order in place.
// It is a binary insertion sort over a mostly sorted buffer: one Less
// call per adjacent pair, plus a binary search and a block shift for
// each job that moved ahead. Past about n·log2(n) shifted slots the
// buffer is far from sorted, and it falls back to a full sort, reporting
// false.
func repairOrder(ord []*Job, ts TotalOrderScheduler, now float64) bool {
	budget := len(ord) * bits.Len(uint(len(ord)))
	for i := 1; i < len(ord); i++ {
		x := ord[i]
		if !ts.Less(x, ord[i-1], now) {
			continue
		}
		// ord[:i] is sorted and x precedes ord[i-1]: find the first job
		// x precedes.
		lo, hi := 0, i-1
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if ts.Less(x, ord[m], now) {
				hi = m
			} else {
				lo = m + 1
			}
		}
		if budget -= i - lo; budget < 0 {
			// The generic sort tests only cmp(a, b) < 0, and a strict
			// total order needs no three-way answer, so one Less call
			// per comparison suffices.
			slices.SortFunc(ord, func(a, b *Job) int {
				if ts.Less(a, b, now) {
					return -1
				}
				return 1
			})
			return false
		}
		copy(ord[lo+1:i+1], ord[lo:i])
		ord[lo] = x
	}
	return true
}

// placementRepeats reports whether the allocations in force provably
// survive a placement call over the same job set: always under a sticky
// placer, and under a FixpointPlacer after a fixpoint round.
func (e *engine) placementRepeats() bool {
	return e.cfg.Placer.Sticky() || e.fixpoint
}

// placementClean reports whether the placement phase is provably a no-op
// this round: the allocations in force repeat (placementRepeats), every
// prefix job already holds GPUs, and nobody outside the prefix holds any
// (no preemption due) — so the prefix set is exactly the set those
// allocations were made for. The check is the dirty-set gate — O(n) with
// no allocation. For a sticky placer it mirrors exactly the conditions
// under which place() would fall through without touching the cluster;
// for a fixpoint placer place() would release every job and hand it
// back the GPUs it already holds. Either way skipping it cannot be
// observed beyond the PlaceTimes sample it saves. The reference loop
// always re-enters place().
func (e *engine) placementClean(prefix []*Job) bool {
	if e.cfg.DisableFastForward || !e.placementRepeats() {
		return false
	}
	for _, j := range prefix {
		if j.Alloc == nil {
			return false
		}
	}
	nRunning := 0
	for _, j := range e.active {
		if j.Alloc != nil {
			nRunning++
		}
	}
	return nRunning == len(prefix)
}

// allActiveRunning reports whether every active job currently holds GPUs
// (the sparse fast-forward precondition, where a finishing round cannot
// promote a waiter because there are none).
func (e *engine) allActiveRunning() bool {
	for _, j := range e.active {
		if j.Alloc == nil {
			return false
		}
	}
	return true
}

// bulkAdvance is the event-horizon stepping phase: starting immediately
// after a full round, it advances through every following round that
// provably repeats that round's decision, handing the first
// state-changing round back to the full loop. A round repeats when
// nothing arrives (checked against the next-arrival horizon), nothing
// finishes (earliest-completion horizon under the frozen slowdowns),
// and the schedulable prefix is unchanged. With a sticky placer — or a
// fixpoint placer after a fixpoint round, whose allocations repeat for
// as long as the prefix set holds — the prefix is a pure function of
// the scheduling order, the job demands and the cluster *size* — not
// the free state — so prefix stability reduces to order stability:
//
//   - with an empty waiting set, any permutation of the running jobs
//     fits, so the prefix is trivially stable (the sparse fast-forward
//     of PR 2);
//   - with waiters, the engine asks the scheduler
//     (PartitionStableScheduler) for per-running-job attained-service
//     ceilings below which the running/waiting partition provably holds,
//     and ends the span before any running job reaches its ceiling —
//     this is what lets dense, saturated traces advance in bulk.
//
// Each skipped round applies exactly the arithmetic advance would have
// (Remaining -= RoundSec/slowdown, Attained += RoundSec×demand, with
// each job's cached Job.sd as the slowdown), in the same per-round
// addition order, so results are byte-identical to naive iteration.
// Waiting jobs are untouched, exactly as a naive round would leave them. The whole span reaches the
// metrics sink as one observation (every per-round quantity is frozen
// for its duration). Other non-sticky placers re-place — and may re-roll
// their RNG — every round, which is observable behaviour, so they never
// bulk advance, and a fixpoint placer bulk advances only from a
// fixpoint; nor do runs with an Observer attached (its contract is one
// callback per job per round).
func (e *engine) bulkAdvance(now float64, rounds int) (float64, int) {
	cfg := e.cfg
	if cfg.DisableFastForward || cfg.Observer != nil || !e.placementRepeats() || len(e.active) == 0 {
		return now, rounds
	}
	// Arrival horizon first: if the next arrival is already due, the
	// span would be empty — skip the partition/slowdown setup entirely.
	nextArr := math.Inf(1)
	if e.nextArrival < len(e.jobs) {
		nextArr = e.jobs[e.nextArrival].Spec.Arrival
	}
	if nextArr <= now || rounds >= cfg.MaxRounds || e.haltsAt(rounds) {
		return now, rounds
	}

	// Partition the active set as the just-executed round left it:
	// running jobs hold GPUs (they were the schedulable prefix), the
	// rest wait.
	running := e.runBuf[:0]
	waiting := e.waitBuf[:0]
	for _, j := range e.active {
		if j.Alloc != nil {
			running = append(running, j)
		} else {
			waiting = append(waiting, j)
		}
	}
	e.runBuf, e.waitBuf = running[:0], waiting[:0]

	var ceilings []float64
	if len(waiting) > 0 {
		ps, ok := cfg.Sched.(PartitionStableScheduler)
		if !ok {
			return now, rounds
		}
		if cap(e.ceilBuf) < len(running) {
			e.ceilBuf = make([]float64, len(running))
		}
		ceilings = e.ceilBuf[:len(running)]
		ps.AttainedCeilings(running, waiting, ceilings)
		// Order horizon already reached (e.g. the just-executed advance
		// moved a runner onto a waiter's key): nothing to skip.
		for i, j := range running {
			if j.Attained >= ceilings[i] {
				return now, rounds
			}
		}
	}

	round := cfg.RoundSec
	spanStart, spanFrom := now, rounds
	for rounds < cfg.MaxRounds && nextArr > now && !e.haltsAt(rounds) {
		repeats := true
		for i, j := range running {
			if j.Remaining*j.sd <= round {
				repeats = false // completion horizon: this round finishes a job
				break
			}
			if ceilings != nil && j.Attained >= ceilings[i] {
				repeats = false // order horizon: the partition may flip here
				break
			}
		}
		if !repeats {
			break
		}
		for _, j := range running {
			j.Remaining -= round / j.sd
			j.Attained += round * float64(j.Spec.Demand)
		}
		now += round
		rounds++
	}
	if skipped := rounds - spanFrom; skipped > 0 && e.ctr != nil {
		if len(waiting) > 0 {
			e.ctr.DenseRounds += int64(skipped)
			e.ctr.DenseSpans++
		} else {
			e.ctr.SparseRounds += int64(skipped)
			e.ctr.SparseSpans++
		}
	}
	e.observe(spanStart, rounds-spanFrom, running, len(waiting))
	e.observeDecisionSpan(spanStart, rounds-spanFrom, running, len(waiting))
	return now, rounds
}

// admitArrivals moves arrived jobs into the active set, applying
// admission control. Rejected jobs are marked Done with a zero-length
// schedule so the run can terminate.
func (e *engine) admitArrivals(now float64) {
	for e.nextArrival < len(e.jobs) {
		j := e.jobs[e.nextArrival]
		if j.Spec.Arrival > now {
			break
		}
		e.nextArrival++
		if !e.cfg.Admit.Admit(j, e.cluster) {
			j.Done = true
			j.Finish = j.Spec.Arrival
			j.FirstRun = j.Spec.Arrival
			e.rejected++
			continue
		}
		e.active = append(e.active, j)
	}
}

// schedulablePrefix marks the queue at cluster size (§III-B, Fig. 4): the
// longest prefix of the scheduling order whose cumulative demand fits the
// cluster. The walk stops at the first job that does not fit, preserving
// the scheduling policy's guarantee (no backfilling around a blocked
// high-priority job).
func schedulablePrefix(ordered []*Job, clusterSize int) []*Job {
	used := 0
	for i, j := range ordered {
		if used+j.Spec.Demand > clusterSize {
			return ordered[:i]
		}
		used += j.Spec.Demand
	}
	return ordered
}

// place preempts descheduled jobs, applies sticky semantics and invokes
// the placement policy for jobs needing GPUs. Prefix membership and
// was-running state ride on per-job scratch marks rather than per-round
// maps, so the phase allocates nothing in steady state; both marks are
// false again by the time place returns. Under the fixpoint gate it also
// records whether every placed job kept its previous GPUs.
//
// The engine owns allocation storage. A running job re-placed this
// round retires its PrevAlloc — its allocation from the round before,
// an array nothing else references, since a job's Alloc and PrevAlloc
// never share one — and the placer's pick is copied into that array.
// So a non-sticky steady state allocates nothing per job, and the array
// the job's new PrevAlloc uses, which migration detection and the
// encoded results read, is never written.
//
// Under a non-sticky placer every job holding GPUs is either preempted
// or re-placed this round, so the round frees the whole cluster with
// one Cluster.Reset instead of one Release per job. A sticky round
// releases only the preempted jobs' GPUs.
func (e *engine) place(prefix []*Job, now float64) error {
	e.fixpoint = e.fixpointGate
	sticky := e.cfg.Placer.Sticky()
	for _, j := range prefix {
		j.inPrefix = true
	}
	// Preempt running jobs that fell out of the schedulable set.
	for _, j := range e.active {
		if j.Alloc != nil && !j.inPrefix {
			if sticky {
				e.cluster.Release(j.Alloc)
			}
			j.PrevAlloc = j.Alloc
			j.Alloc = nil
			j.sd = 0
			j.Preemptions++
			if e.ctr != nil {
				e.ctr.Preemptions++
				e.ctr.ReleaseCalls++
			}
			if e.cfg.Decisions != nil {
				e.decPreempt = append(e.decPreempt,
					PreemptionDecision{Job: j.Spec.ID, GPUs: j.Spec.Demand})
			}
		}
	}

	need, spare := e.needBuf[:0], e.spareBuf[:0]
	for _, j := range prefix {
		j.inPrefix = false
		var retired []cluster.GPUID
		if j.Alloc != nil {
			if sticky {
				continue // sticky jobs keep their GPUs
			}
			// The job keeps its cached slowdown until the pick shows
			// whether its GPUs changed.
			j.wasRunning = true
			retired = j.PrevAlloc
			j.PrevAlloc = j.Alloc
			j.Alloc = nil
			if e.ctr != nil {
				e.ctr.ReleaseCalls++
			}
		}
		need = append(need, j)
		spare = append(spare, retired)
	}
	if !sticky {
		e.cluster.Reset()
	}
	e.needBuf = need[:0]
	// The retired arrays are about to become job state again; drop the
	// scratch's references so it pins nothing past this call.
	defer clear(spare)
	e.spareBuf = spare[:0]
	if len(need) == 0 {
		return nil
	}

	t0 := time.Now()
	allocs := e.cfg.Placer.PlaceRound(e.cluster, need, now)
	e.placeTimes = append(e.placeTimes, time.Since(t0).Seconds())
	if e.ctr != nil {
		e.ctr.PlaceCalls++
		e.ctr.JobsPlaced += int64(len(need))
	}

	for i, j := range need {
		alloc, ok := allocs[j.Spec.ID]
		if !ok || len(alloc) != j.Spec.Demand {
			return fmt.Errorf("sim: placer %s gave job %d %d GPUs, want %d",
				e.cfg.Placer.Name(), j.Spec.ID, len(alloc), j.Spec.Demand)
		}
		// Claim validates while it commits, so a buggy placer surfaces
		// as an error, not a panic deep in the cluster bookkeeping.
		if bad := e.cluster.Claim(j.Spec.ID, alloc); bad >= 0 {
			return e.claimError(j, alloc, bad)
		}
		if e.ctr != nil {
			e.ctr.AllocCalls++
		}
		if cap(spare[i]) < len(alloc) {
			spare[i] = make([]cluster.GPUID, len(alloc))
		}
		alloc = append(spare[i][:0], alloc...)
		wasRunning := j.wasRunning
		j.wasRunning = false
		migrated := wasRunning && !sameGPUs(j.PrevAlloc, alloc)
		j.Alloc = alloc
		if !wasRunning || migrated {
			e.fixpoint = false
			j.sd = e.slowdown(j)
		}
		if migrated {
			j.Migrations++
			if e.ctr != nil {
				e.ctr.Migrations++
			}
			j.migrated = true
		}
		started := false
		if !j.Started {
			j.Started = true
			j.FirstRun = now
			started = true
		}
		if e.cfg.Decisions != nil {
			l, maxV := e.slowdownParts(j)
			e.decPlace = append(e.decPlace, PlacementDecision{
				Job:      j.Spec.ID,
				GPUs:     j.Spec.Demand,
				Nodes:    e.cluster.NodesSpanned(alloc),
				Racks:    e.cluster.RacksSpanned(alloc),
				Locality: l,
				PMScore:  maxV,
				Slowdown: l * maxV,
				Started:  started,
				Resumed:  !started && !wasRunning,
				Migrated: migrated,
			})
		}
	}
	return nil
}

// claimError describes why Cluster.Claim rejected alloc[bad], the first
// GPU of j's allocation it could not take: out of range, repeated
// earlier in alloc, or held by another job. Every GPU before it was in
// range, distinct and free, so this is the fault a GPU-by-GPU check
// would have met first.
func (e *engine) claimError(j *Job, alloc []cluster.GPUID, bad int) error {
	g := alloc[bad]
	switch {
	case g < 0 || int(g) >= e.cluster.Size():
		return fmt.Errorf("sim: placer %s gave job %d out-of-range GPU %d",
			e.cfg.Placer.Name(), j.Spec.ID, g)
	case slices.Contains(alloc[:bad], g):
		return fmt.Errorf("sim: placer %s gave job %d GPU %d twice",
			e.cfg.Placer.Name(), j.Spec.ID, g)
	}
	return fmt.Errorf("sim: placer %s gave job %d busy GPU %d (owner %d)",
		e.cfg.Placer.Name(), j.Spec.ID, g, e.cluster.Owner(g))
}

// sameGPUs reports set equality of two allocations: equal lengths and
// every GPU of b present in a (the engine validates allocations
// duplicate-free before they reach here, so containment plus length is
// equality). A kept job's pick is its PrevAlloc itself, so an
// element-wise match answers first; otherwise allocations are small
// (one job's demand), and a quadratic scan beats building a map.
func sameGPUs(a, b []cluster.GPUID) bool {
	if len(a) != len(b) {
		return false
	}
	if slices.Equal(a, b) {
		return true
	}
	for _, g := range b {
		found := false
		for _, h := range a {
			if h == g {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// slowdown evaluates Equation 1's multiplier for a job's allocation:
// L(alloc) × max_g PMScore(g, class), with the true (experienced)
// profile. With the optional rack level enabled, allocations spanning
// nodes inside one rack pay Lrack and only rack-spanning allocations pay
// the full Lacross.
func (e *engine) slowdown(j *Job) float64 {
	l, maxV := e.slowdownParts(j)
	return l * maxV
}

// slowdownParts returns Equation 1's two factors separately — the
// locality penalty L(alloc) and the max per-GPU PM score — so the
// decision trace can record the score decomposition of a placement
// without changing the arithmetic slowdown performs (l × maxV, the same
// product in the same order).
func (e *engine) slowdownParts(j *Job) (l, maxV float64) {
	l = 1.0
	if e.cluster.MultiNode(j.Alloc) {
		l = e.cfg.Lacross
		if e.cfg.ModelLacross != nil {
			if v, ok := e.cfg.ModelLacross[j.Spec.Model]; ok {
				l = v
			}
		}
		if e.cfg.Lrack > 0 && !e.cluster.MultiRack(j.Alloc) {
			l = e.cfg.Lrack
		}
	}
	for _, g := range j.Alloc {
		if v := e.cfg.TrueProfile.Score(j.Spec.Class, int(g)); v > maxV {
			maxV = v
		}
	}
	return l, maxV
}

// advance progresses every placed job by one round, completing jobs whose
// remaining work fits in the round. Returns the number of completions.
func (e *engine) advance(prefix []*Job, now float64) int {
	finished := 0
	for _, j := range prefix {
		round := e.cfg.RoundSec
		overhead := 0.0
		if j.migrated {
			// Checkpoint/restore eats the start of the round.
			overhead = e.cfg.MigrationPenaltySec
			if overhead > round {
				overhead = round
			}
			round -= overhead
			j.migrated = false
		}
		sd := j.sd
		if e.cfg.Observer != nil {
			perGPU := make([]float64, len(j.Alloc))
			for i, g := range j.Alloc {
				perGPU[i] = e.cfg.TrueProfile.Score(j.Spec.Class, int(g))
			}
			e.cfg.Observer.ObserveRound(j, perGPU, now)
		}
		wallToFinish := j.Remaining * sd
		wallRun := round
		if wallToFinish <= round {
			wallRun = wallToFinish
			j.Remaining = 0
			j.Done = true
			j.Finish = now + overhead + wallToFinish
			e.cluster.Release(j.Alloc)
			j.Alloc = nil
			j.sd = 0
			finished++
			if e.ctr != nil {
				e.ctr.ReleaseCalls++
			}
		} else {
			j.Remaining -= round / sd
		}
		j.Attained += wallRun * float64(j.Spec.Demand)
	}
	if finished > 0 {
		// Freed GPUs can change every remaining job's fresh pick.
		e.fixpoint = false
		// Compact the active list.
		kept := e.active[:0]
		for _, j := range e.active {
			if !j.Done {
				kept = append(kept, j)
			}
		}
		e.active = kept
	}
	return finished
}

func (e *engine) result(start, end float64, rounds int) (*Result, error) {
	res := &Result{
		Jobs:       e.jobs,
		Rounds:     rounds,
		PlaceTimes: e.placeTimes,
		Metrics:    e.cfg.Metrics,
		Decisions:  e.cfg.Decisions,
	}
	first, last := e.cfg.MeasureFirst, e.cfg.MeasureLast
	if last <= 0 {
		last = len(e.jobs) - 1
	}
	lastFinish := start
	for _, j := range e.jobs {
		// A truncated run's survivors still hold GPUs; dropping their
		// cached slowdowns leaves the result equal, field for field, to
		// its decoded archive.
		j.sd = 0
		if j.Done && j.Finish > lastFinish {
			lastFinish = j.Finish
		}
		if j.Done && j.Spec.ID >= first && j.Spec.ID <= last {
			res.Measured = append(res.Measured, j)
		}
		if !j.Done {
			res.Unfinished++
		}
	}
	firstArrival := e.jobs[0].Spec.Arrival
	res.Makespan = lastFinish - firstArrival
	span := lastFinish - firstArrival
	if span > 0 {
		capacity := float64(e.cluster.Size()) * span
		// Busy GPU-seconds are summed per job in trace order rather than
		// accumulated round by round: each job's Attained already holds
		// exactly the round-by-round increments, and a fixed summation
		// order keeps the float result independent of how many rounds the
		// engine fast-forwarded through.
		var busy float64
		for _, j := range e.jobs {
			busy += j.Attained
		}
		res.Utilization = busy / capacity
		var ideal float64
		for _, j := range e.jobs {
			if j.Done && j.Started {
				ideal += float64(j.Spec.Demand) * j.Spec.Work
			}
		}
		res.ProductiveUtilization = ideal / capacity
	}
	if err := e.cluster.CheckInvariants(); err != nil {
		return nil, err
	}
	return res, nil
}
