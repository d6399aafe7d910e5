// Package runner is the experiment-orchestration layer: it fans
// independent simulations out across a bounded worker pool while
// preserving the bit-for-bit determinism of the single-goroutine engine.
//
// The engine in internal/sim is deterministic for a given configuration,
// and every configuration carries its own RNG stream (derived with
// rng.Split from a stable key), so independent runs commute: executing
// them concurrently cannot change any individual result. The runner
// builds on that property:
//
//   - Pool executes Tasks on up to Workers goroutines with context
//     cancellation and per-task panic capture. Results come back indexed
//     by submission order, never completion order, so callers observe
//     the exact sequence a serial loop would have produced.
//   - ResultCache (cache.go) memoizes results under content-addressed
//     keys — a canonical hash of the full run configuration — with LRU
//     eviction and single-flight deduplication, so identical
//     configurations reached from different experiments run once.
//   - Sweep (sweep.go) accumulates parameter grids and runs them,
//     returning the results in grid order.
//
// The package deliberately knows nothing about the experiments layer: a
// Task is just a key plus a closure returning a *sim.Result, which keeps
// the dependency arrow pointing downward (experiments -> runner -> sim).
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Task is one unit of work: a deterministic simulation run.
type Task struct {
	// Key is the content-addressed identity of the run: two tasks with
	// equal keys must produce identical results. A task with an empty key
	// bypasses the cache (used for runs whose configuration cannot be
	// canonically hashed, e.g. ablations with hand-built placers).
	Key string
	// Label names the task in error messages and progress output
	// (e.g. "fig13 C2.0 PAL w5"). Optional.
	Label string
	// Run executes the simulation. It must be safe to call from any
	// goroutine and must not retain references to mutable shared state.
	Run func() (*sim.Result, error)
	// Forked, when non-nil, is consulted after Run returns: true means
	// the result was produced by resuming a shared engine snapshot
	// rather than simulating from scratch, and the task's outcome is
	// reported as OutcomeSnapshotFork instead of OutcomeExecuted. It is
	// called on the same goroutine that called Run, immediately after
	// it.
	Forked func() bool
	// Counters, when non-nil, is consulted like Forked after Run
	// returns, but only when the Run closure actually ran (executed or
	// snapshot-fork outcomes): it hands the probe the engine
	// introspection counters the run populated, carried on
	// TaskSpan.Counters. Cache hits and errors report nil counters — no
	// engine stepped on this process's CPU.
	Counters func() *sim.Counters
}

// PanicError wraps a panic recovered from a task so one faulty run
// surfaces as an ordinary error instead of killing the whole pool.
type PanicError struct {
	Label string
	Value interface{}
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: task %q panicked: %v", e.Label, e.Value)
}

// Stats is a snapshot of a pool's lifetime counters, used for progress
// and ETA reporting.
type Stats struct {
	Submitted int64 // tasks handed to Run
	Completed int64 // tasks finished (including cache hits and errors)
	CacheHits int64 // tasks satisfied from the result cache (either tier)
	// Executed counts tasks whose Run closure actually ran — simulations
	// truly performed, as opposed to results served from the memory or
	// store tier. A fully warm-started sweep reports Executed == 0.
	Executed int64
	// SnapshotForks counts the subset of Executed whose Run resumed a
	// shared engine snapshot instead of simulating its warmup prefix
	// (Task.Forked reported true), so Executed - SnapshotForks is the
	// number of full from-scratch simulations.
	SnapshotForks int64
}

// Pool executes tasks with bounded concurrency. The bound is
// pool-global: concurrent Run calls share one semaphore, so a
// CLI fanning out many experiments over one pool still runs at most
// Workers simulations at a time. The zero value is not usable;
// construct with NewPool. A Pool is safe for concurrent use and holds
// no goroutines between calls, so a panic or cancellation in one batch
// never poisons the next.
type Pool struct {
	workers int
	cache   *ResultCache
	// sem is the pool-global execution bound: it holds the ids of the
	// free worker slots, and every task takes one for the duration of
	// its run, across all concurrent Run calls. The slot id is the
	// task span's Worker, so no two spans of one slot ever overlap.
	sem chan int
	// probe observes task lifecycles (SetProbe). Observation-only: the
	// nil-probe path takes no timestamps and allocates nothing.
	probe Probe

	submitted atomic.Int64
	completed atomic.Int64
	cacheHits atomic.Int64
	executed  atomic.Int64
	forked    atomic.Int64
}

// NewPool returns a pool running at most workers tasks concurrently.
// workers <= 0 selects runtime.GOMAXPROCS(0). cache may be nil to
// disable result caching.
func NewPool(workers int, cache *ResultCache) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan int, workers)
	for slot := 0; slot < workers; slot++ {
		sem <- slot
	}
	return &Pool{workers: workers, cache: cache, sem: sem}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Cache returns the pool's result cache (nil when caching is disabled).
func (p *Pool) Cache() *ResultCache { return p.cache }

// Stats returns a snapshot of the pool's lifetime counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Submitted:     p.submitted.Load(),
		Completed:     p.completed.Load(),
		CacheHits:     p.cacheHits.Load(),
		Executed:      p.executed.Load(),
		SnapshotForks: p.forked.Load(),
	}
}

// Run executes the tasks and returns their results in submission
// order, the exact sequence a serial loop would have produced. Workers
// claim task indices in submission order from one counter, and a
// claimed task always runs: the engine is not interruptible
// mid-simulation. Once any task fails, no new task starts, and Run
// returns the lowest-index failure. That error is deterministic because
// every lower index was claimed first and therefore ran. External
// cancellation stops dispatch the same way and returns ctx.Err().
func (p *Pool) Run(ctx context.Context, tasks []Task) ([]*sim.Result, error) {
	p.submitted.Add(int64(len(tasks)))
	out := make([]*sim.Result, len(tasks))
	errs := make([]error, len(tasks))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(p.workers, len(tasks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// The pool-global semaphore keeps the total number of
				// in-flight tasks at p.workers even when several Run calls
				// share one pool. A slot is taken before an index is
				// claimed, so every claimed index runs. Safe with the
				// cache's single-flight: a load only registers as in-flight
				// once its goroutine holds a slot, so a waiter holding
				// another slot always waits on a progressing load.
				var slot int
				select {
				case slot = <-p.sem:
				case <-ctx.Done():
					return
				}
				// Checked after the slot is taken: with both select cases
				// ready, select picks randomly.
				i := len(tasks)
				if !failed.Load() && ctx.Err() == nil {
					i = int(next.Add(1)) - 1
				}
				if i >= len(tasks) {
					p.sem <- slot
					return
				}
				out[i], errs[i] = p.exec(slot, tasks[i])
				if errs[i] != nil {
					failed.Store(true)
				}
				p.sem <- slot
			}
		}()
	}
	wg.Wait()

	claimed := min(int(next.Load()), len(tasks))
	for i, err := range errs[:claimed] {
		if err != nil {
			return nil, fmt.Errorf("runner: task %d (%s): %w", i, tasks[i].Label, err)
		}
	}
	if claimed < len(tasks) {
		// No task failed, so dispatch stopped on cancellation.
		return nil, ctx.Err()
	}
	return out, nil
}

// exec runs one task with panic capture, cache routing and (when a
// probe is attached) lifecycle-span observation. The probe sees the
// outcome the cache tiers decided — executed, memory-hit, store-hit or
// error — after the task completes; with no probe attached, no clocks
// are read.
func (p *Pool) exec(slot int, t Task) (*sim.Result, error) {
	defer p.completed.Add(1)
	probe := p.probe
	var start time.Time
	var runDur time.Duration
	if probe != nil {
		start = time.Now()
	}
	run := func() (res *sim.Result, err error) {
		p.executed.Add(1)
		if probe != nil {
			t0 := time.Now()
			defer func() { runDur = time.Since(t0) }()
		}
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Label: t.Label, Value: r, Stack: debug.Stack()}
			}
		}()
		return t.Run()
	}
	var res *sim.Result
	var err error
	outcome := OutcomeExecuted
	if p.cache == nil || t.Key == "" {
		res, err = run()
	} else {
		var src tier
		res, src, err = p.cache.do(t.Key, run)
		if src != tierComputed {
			p.cacheHits.Add(1)
		}
		switch src {
		case tierMemory:
			outcome = OutcomeMemoryHit
		case tierStore:
			outcome = OutcomeStoreHit
		}
	}
	if err != nil {
		outcome = OutcomeError
	}
	if outcome == OutcomeExecuted && t.Forked != nil && t.Forked() {
		// Only a task whose Run closure actually ran can have forked; a
		// cache hit reports its tier regardless of how the cached result
		// was originally produced.
		outcome = OutcomeSnapshotFork
		p.forked.Add(1)
	}
	if probe != nil {
		var ctrs *sim.Counters
		if (outcome == OutcomeExecuted || outcome == OutcomeSnapshotFork) && t.Counters != nil {
			ctrs = t.Counters()
		}
		probe.ObserveTask(TaskSpan{
			Key:      t.Key,
			Label:    t.Label,
			Worker:   slot,
			Outcome:  outcome,
			Err:      err,
			Start:    start,
			Duration: time.Since(start),
			Run:      runDur,
			Counters: ctrs,
		})
	}
	return res, err
}
