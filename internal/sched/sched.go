// Package sched implements the job-selection (scheduling) policies the
// paper attaches its placement policies to (§IV-A2): FIFO, Tiresias-style
// Least Attained Service with two-level priority queueing, and preemptive
// Shortest Remaining Time First. Scheduling is orthogonal to placement in
// the Blox architecture: these policies decide *which* jobs run each
// round; placement decides *where*.
//
// All three policies order by strict total orders (unique job IDs break
// every tie), so they expose sim.TotalOrderScheduler for the engine's
// incremental ordering, and sim.PartitionStableScheduler so dense traces
// can bulk-advance through rounds whose running/waiting split provably
// cannot change.
package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/sim"
)

// FIFO prioritizes jobs in order of arrival. The zero value is ready to
// use.
type FIFO struct{}

// Name implements sim.Scheduler.
func (FIFO) Name() string { return "fifo" }

// Less implements sim.TotalOrderScheduler: ascending arrival, ties by
// job ID (a strict total order — IDs are unique).
func (FIFO) Less(a, b *sim.Job, _ float64) bool {
	if a.Spec.Arrival != b.Spec.Arrival {
		return a.Spec.Arrival < b.Spec.Arrival
	}
	return a.Spec.ID < b.Spec.ID
}

// Order implements sim.Scheduler as the Less-induced sequence.
func (f FIFO) Order(jobs []*sim.Job, now float64) []*sim.Job {
	out := append([]*sim.Job(nil), jobs...)
	slices.SortStableFunc(out, func(a, b *sim.Job) int { return lessCmp(f, a, b, now) })
	return out
}

// AttainedCeilings implements sim.PartitionStableScheduler: FIFO keys
// (arrival, ID) are frozen for the lifetime of a job, so with a fixed
// active set the ordering — and the running/waiting partition — can
// never change, no matter how much service running jobs accumulate.
func (FIFO) AttainedCeilings(running, _ []*sim.Job, ceilings []float64) {
	for i := range running {
		ceilings[i] = math.Inf(1)
	}
}

// LAS implements Tiresias's discretized Least-Attained-Service scheduler
// (Gu et al., NSDI'19) with two-level priority queueing: jobs whose
// attained service (GPU-seconds) is below Threshold sit in the high-
// priority queue, the rest are demoted to the low-priority queue. Within
// a queue jobs are ordered by attained service then arrival, so fresh
// arrivals (zero attained service) preempt long-running jobs — the wait-
// time pattern §V-C1 analyses.
type LAS struct {
	// Threshold is the attained-service boundary between the two queues,
	// in GPU-seconds. Zero selects DefaultLASThreshold.
	Threshold float64
}

// DefaultLASThreshold is the queue-demotion boundary used when LAS's
// threshold is unset: 8 GPU-hours of attained service, a mid-range value
// relative to the Synergy duration distribution.
const DefaultLASThreshold = 8 * 3600

// Name implements sim.Scheduler.
func (LAS) Name() string { return "las" }

// threshold returns the effective queue-demotion boundary.
func (l LAS) threshold() float64 {
	if l.Threshold <= 0 {
		return DefaultLASThreshold
	}
	return l.Threshold
}

// queueOf returns the job's two-level queue: 0 below the threshold, 1
// after demotion.
func (l LAS) queueOf(j *sim.Job) int {
	if j.Attained < l.threshold() {
		return 0
	}
	return 1
}

// Less implements sim.TotalOrderScheduler: queue level, then attained
// service, then arrival, then job ID (a strict total order).
func (l LAS) Less(a, b *sim.Job, _ float64) bool {
	qa, qb := l.queueOf(a), l.queueOf(b)
	if qa != qb {
		return qa < qb
	}
	if a.Attained != b.Attained {
		return a.Attained < b.Attained
	}
	if a.Spec.Arrival != b.Spec.Arrival {
		return a.Spec.Arrival < b.Spec.Arrival
	}
	return a.Spec.ID < b.Spec.ID
}

// Order implements sim.Scheduler as the Less-induced sequence.
func (l LAS) Order(jobs []*sim.Job, now float64) []*sim.Job {
	out := append([]*sim.Job(nil), jobs...)
	slices.SortStableFunc(out, func(a, b *sim.Job) int { return lessCmp(l, a, b, now) })
	return out
}

// AttainedCeilings implements sim.PartitionStableScheduler. LAS keys
// *do* evolve while a job runs — attained service grows, and crossing
// the two-level threshold demotes the job — so a running job stays
// provably ahead of every waiting job only until it (a) reaches the
// least attained service among waiting jobs in its own queue (a frozen
// quantity: waiting jobs accrue nothing), or (b) crosses the demotion
// threshold, which reorders it against every waiter at once. The
// ceiling is the nearer of the two; the engine ends a bulk span before
// executing any round at which a running job has reached it. Both
// bounds are conservative at ties (equality can still order the runner
// first via the arrival/ID tiebreak), which costs span length, never
// correctness.
func (l LAS) AttainedCeilings(running, waiting []*sim.Job, ceilings []float64) {
	minWait := [2]float64{math.Inf(1), math.Inf(1)}
	for _, w := range waiting {
		if q := l.queueOf(w); w.Attained < minWait[q] {
			minWait[q] = w.Attained
		}
	}
	for i, r := range running {
		q := l.queueOf(r)
		ceil := minWait[q]
		if q == 0 && l.threshold() < ceil {
			ceil = l.threshold()
		}
		if q == 1 && minWait[0] < math.Inf(1) {
			// The job was still in the high-priority queue when this
			// round's order was computed, but its advance carried it over
			// the threshold (a demoted runner never coexists with a
			// high-priority waiter at sort time: the waiter would order
			// first and the prefix cut would have preempted the runner).
			// The very next sort will see the demotion and may reshuffle
			// the partition, so the span must not skip any round.
			ceil = math.Inf(-1)
		}
		ceilings[i] = ceil
	}
}

// SRTF performs preemptive shortest-remaining-time-first scheduling: jobs
// are ordered by remaining ideal work (the simulator's ground truth,
// matching the paper's assumption that SRTF knows job lengths).
type SRTF struct{}

// Name implements sim.Scheduler.
func (SRTF) Name() string { return "srtf" }

// Less implements sim.TotalOrderScheduler: remaining work, then
// arrival, then job ID (a strict total order).
func (SRTF) Less(a, b *sim.Job, _ float64) bool {
	if a.Remaining != b.Remaining {
		return a.Remaining < b.Remaining
	}
	if a.Spec.Arrival != b.Spec.Arrival {
		return a.Spec.Arrival < b.Spec.Arrival
	}
	return a.Spec.ID < b.Spec.ID
}

// Order implements sim.Scheduler as the Less-induced sequence.
func (s SRTF) Order(jobs []*sim.Job, now float64) []*sim.Job {
	out := append([]*sim.Job(nil), jobs...)
	slices.SortStableFunc(out, func(a, b *sim.Job) int { return lessCmp(s, a, b, now) })
	return out
}

// AttainedCeilings implements sim.PartitionStableScheduler. SRTF keys
// move monotonically in the safe direction: a running job's remaining
// work only decreases, so it can only migrate *earlier* in the order,
// while waiting jobs are frozen. A running job therefore never falls
// behind a waiting job it was ahead of, and the partition holds for as
// long as nothing arrives or finishes — the ceilings are unbounded.
func (SRTF) AttainedCeilings(running, _ []*sim.Job, ceilings []float64) {
	for i := range running {
		ceilings[i] = math.Inf(1)
	}
}

// lessCmp adapts a strict-total-order Less to the three-way comparison
// the generic sorts want. sort.SliceStable's reflection-based swapper
// dominated the dense-path allocation profile; the generic sorts do the
// same comparisons with zero per-call allocation.
func lessCmp(ts sim.TotalOrderScheduler, a, b *sim.Job, now float64) int {
	if ts.Less(a, b, now) {
		return -1
	}
	if ts.Less(b, a, now) {
		return 1
	}
	return 0
}

// Builder constructs a scheduler from named numeric parameters (e.g.
// {"threshold_sec": 14400} for LAS). Builders must reject parameters
// they do not understand, so a typo in a scenario spec surfaces as an
// error instead of a silently-default run.
type Builder func(params map[string]float64) (sim.Scheduler, error)

// registry maps scheduler names to builders. The three paper policies
// register below; extensions (examples, future policies) add their own
// with Register and become addressable from scenario specs and CLI
// flags with no further wiring.
var (
	registryMu sync.RWMutex
	registry   = map[string]Builder{}
)

// Register adds a scheduler builder under the given name. It panics on
// a duplicate name — registration happens in package init, and a
// collision is a programming error worth failing loudly on.
func Register(name string, build Builder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sched: duplicate registration of %q", name))
	}
	registry[name] = build
}

// Build constructs the named scheduler. nil params means defaults.
func Build(name string, params map[string]float64) (sim.Scheduler, error) {
	registryMu.RLock()
	build, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (have %v)", name, Names())
	}
	return build(params)
}

// Names returns the registered scheduler names in sorted order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// noParams rejects any parameters, for schedulers that take none.
func noParams(name string, params map[string]float64) error {
	for k := range params {
		return fmt.Errorf("sched: %s takes no parameters, got %q", name, k)
	}
	return nil
}

func init() {
	Register("fifo", func(params map[string]float64) (sim.Scheduler, error) {
		if err := noParams("fifo", params); err != nil {
			return nil, err
		}
		return FIFO{}, nil
	})
	Register("las", func(params map[string]float64) (sim.Scheduler, error) {
		l := LAS{}
		for k, v := range params {
			switch k {
			case "threshold_sec":
				if v <= 0 {
					return nil, fmt.Errorf("sched: las threshold_sec=%g, want > 0", v)
				}
				l.Threshold = v
			default:
				return nil, fmt.Errorf("sched: las does not understand parameter %q", k)
			}
		}
		return l, nil
	})
	Register("srtf", func(params map[string]float64) (sim.Scheduler, error) {
		if err := noParams("srtf", params); err != nil {
			return nil, err
		}
		return SRTF{}, nil
	})
}

// Compile-time checks: the three paper schedulers expose both engine
// capability interfaces.
var (
	_ sim.TotalOrderScheduler      = FIFO{}
	_ sim.TotalOrderScheduler      = LAS{}
	_ sim.TotalOrderScheduler      = SRTF{}
	_ sim.PartitionStableScheduler = FIFO{}
	_ sim.PartitionStableScheduler = LAS{}
	_ sim.PartitionStableScheduler = SRTF{}
)
