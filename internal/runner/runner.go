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
//     cancellation and per-task panic capture. Results are always
//     delivered in submission order, never completion order, so callers
//     observe the exact sequence a serial loop would have produced.
//   - ResultCache (cache.go) memoizes results under content-addressed
//     keys — a canonical hash of the full run configuration — with LRU
//     eviction and single-flight deduplication, so identical
//     configurations reached from different experiments run once.
//   - Sweep (sweep.go) accumulates parameter grids and streams the
//     completed results back in grid order.
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
	Submitted int64 // tasks handed to Run/Stream
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
// pool-global: concurrent Run/Stream calls share one semaphore, so a
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
	// its run, across all concurrent Stream calls. The slot id is the
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

// Run executes the tasks and returns their results in submission order.
// The first error (in submission order) cancels the remaining tasks and
// is returned; results already produced are discarded.
func (p *Pool) Run(ctx context.Context, tasks []Task) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(tasks))
	err := p.Stream(ctx, tasks, func(i int, res *sim.Result) error {
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// indexed pairs a task index with its outcome for the collector.
type indexed struct {
	i   int
	res *sim.Result
	err error
}

// Stream executes the tasks and delivers each result to deliver in
// submission order (deliver(0, ...), deliver(1, ...), ...), regardless of
// completion order — the property that makes an N-worker sweep
// byte-identical to a serial loop. deliver runs on the calling goroutine.
// On a task error or a non-nil error from deliver, dispatch stops as
// soon as the failure is observed — in-flight runs finish (the engine is
// not interruptible mid-simulation) but no further tasks start. The
// returned error is deterministic: the lowest-index failure.
func (p *Pool) Stream(ctx context.Context, tasks []Task, deliver func(i int, res *sim.Result) error) error {
	if len(tasks) == 0 {
		return ctx.Err()
	}
	p.submitted.Add(int64(len(tasks)))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// stop halts the feeder the moment any failure is observed, even one
	// whose submission-order prefix has not completed yet (cancelling ctx
	// at that point instead could race workers into dropping completed
	// earlier-index outcomes, losing the deterministic error). In-flight
	// tasks — at most Workers of them — still finish and deliver.
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	workers := p.workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	idxCh := make(chan int)
	outCh := make(chan indexed, workers)

	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A received index is always executed — bailing on `stop` here
			// would drop an outcome the collector may need to flush the
			// prefix below a failing task, losing the deterministic error.
			// Only the feeder listens to stop; the in-flight slack after a
			// failure is therefore at most one task per worker.
			for i := range idxCh {
				// Check cancellation before the select: with both cases
				// ready, select picks randomly, which would let a task
				// start ~50% of the time on an already-cancelled context.
				if ctx.Err() != nil {
					return
				}
				// The pool-global semaphore keeps the total number of
				// in-flight tasks at p.workers even when several Stream
				// calls run concurrently on one pool. Safe with the
				// cache's singleflight: a computation only registers as
				// in-flight once its goroutine holds a slot, so a waiter
				// holding another slot always waits on a progressing
				// computation, never a queued one.
				var slot int
				select {
				case slot = <-p.sem:
				case <-ctx.Done():
					return
				}
				res, err := p.exec(slot, tasks[i])
				p.sem <- slot
				select {
				case outCh <- indexed{i, res, err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(idxCh)
		for i := range tasks {
			// As in the worker: a random select pick must not dispatch
			// onto a context that is already cancelled.
			if ctx.Err() != nil {
				return
			}
			select {
			case idxCh <- i:
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outCh)
	}()

	// Reassemble in submission order: buffer out-of-order completions and
	// flush the contiguous prefix as it becomes available.
	pending := make(map[int]indexed, workers)
	next := 0
	var firstErr error
	for o := range outCh {
		if o.err != nil {
			halt()
		}
		pending[o.i] = o
		for {
			buf, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if firstErr == nil && buf.err != nil {
				firstErr = fmt.Errorf("runner: task %d (%s): %w", buf.i, tasks[buf.i].Label, buf.err)
				cancel()
			}
			if firstErr == nil {
				if err := deliver(buf.i, buf.res); err != nil {
					firstErr = err
					cancel()
				}
			}
			next++
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if next < len(tasks) {
		// Workers bailed out before finishing: external cancellation.
		if err := ctx.Err(); err != nil {
			return err
		}
		return fmt.Errorf("runner: %d of %d tasks never completed", len(tasks)-next, len(tasks))
	}
	return nil
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
