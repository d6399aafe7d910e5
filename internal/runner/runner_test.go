package runner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// fakeResult builds a distinguishable result for synthetic tasks. The
// runner never inspects results, so a sentinel with a recognizable field
// is enough to verify ordering and identity.
func fakeResult(i int) *sim.Result {
	return &sim.Result{Rounds: i, Makespan: float64(i) * 10}
}

// fakeTasks builds n deterministic tasks whose results encode their
// index, optionally with per-task artificial latency to scramble
// completion order.
func fakeTasks(n int, delay func(i int) time.Duration) []Task {
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task{
			Label: fmt.Sprintf("task-%d", i),
			Run: func() (*sim.Result, error) {
				if delay != nil {
					time.Sleep(delay(i))
				}
				return fakeResult(i), nil
			},
		}
	}
	return tasks
}

// TestPoolDeterminism: a 1-worker pool and an 8-worker pool must return
// identical results in identical (submission) order, even when later
// tasks complete before earlier ones.
func TestPoolDeterminism(t *testing.T) {
	const n = 40
	// Early tasks sleep longest, so under concurrency the completion
	// order is roughly the reverse of the submission order.
	delay := func(i int) time.Duration { return time.Duration(n-i) * time.Millisecond / 4 }

	collect := func(workers int) []*sim.Result {
		results, err := NewPool(workers, nil).Run(context.Background(), fakeTasks(n, delay))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return results
	}

	serial := collect(1)
	parallel := collect(8)
	if len(serial) != n || len(parallel) != n {
		t.Fatalf("returned %d and %d results, want %d", len(serial), len(parallel), n)
	}
	for i := range serial {
		if serial[i].Rounds != i || parallel[i].Rounds != i {
			t.Fatalf("result out of submission order at %d: serial=%d parallel=%d",
				i, serial[i].Rounds, parallel[i].Rounds)
		}
	}
}

// TestPoolRunOrder: Run returns results indexed by submission order.
func TestPoolRunOrder(t *testing.T) {
	pool := NewPool(4, nil)
	results, err := pool.Run(context.Background(), fakeTasks(16, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Rounds != i {
			t.Errorf("results[%d].Rounds = %d", i, res.Rounds)
		}
	}
	st := pool.Stats()
	if st.Submitted != 16 || st.Completed != 16 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPoolCancellation: cancelling the context stops dispatch promptly
// and surfaces context.Canceled.
func TestPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	tasks := make([]Task, 64)
	for i := range tasks {
		i := i
		tasks[i] = Task{
			Label: fmt.Sprintf("cancel-%d", i),
			Run: func() (*sim.Result, error) {
				started.Add(1)
				<-release
				return fakeResult(i), nil
			},
		}
	}
	pool := NewPool(2, nil)
	errCh := make(chan error, 1)
	go func() {
		_, err := pool.Run(ctx, tasks)
		errCh <- err
	}()
	// Wait for the first tasks to start, then cancel while they block.
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release) // let the in-flight tasks finish
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not return after cancellation")
	}
	if n := started.Load(); n >= 64 {
		t.Errorf("all %d tasks started despite cancellation", n)
	}
}

// TestPoolPanicContainment: a panicking task surfaces as a PanicError
// without killing the pool's other tasks or poisoning later batches.
func TestPoolPanicContainment(t *testing.T) {
	var completed atomic.Int64
	tasks := make([]Task, 12)
	for i := range tasks {
		i := i
		tasks[i] = Task{
			Label: fmt.Sprintf("panic-%d", i),
			Run: func() (*sim.Result, error) {
				if i == 3 {
					panic("boom")
				}
				completed.Add(1)
				return fakeResult(i), nil
			},
		}
	}
	pool := NewPool(4, nil)
	_, err := pool.Run(context.Background(), tasks)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "boom" || pe.Label != "panic-3" {
		t.Errorf("panic error = %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error has no stack")
	}

	// The pool must still work for the next batch.
	results, err := pool.Run(context.Background(), fakeTasks(8, nil))
	if err != nil {
		t.Fatalf("pool unusable after panic: %v", err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d results after panic batch", len(results))
	}
}

// TestPoolErrorIsLowestIndex: with several failing tasks, the error
// reported is deterministically the lowest submission index.
func TestPoolErrorIsLowestIndex(t *testing.T) {
	mkErr := func(i int) error { return fmt.Errorf("fail-%d", i) }
	tasks := make([]Task, 10)
	for i := range tasks {
		i := i
		tasks[i] = Task{
			Label: fmt.Sprintf("err-%d", i),
			Run: func() (*sim.Result, error) {
				if i == 2 || i == 7 {
					return nil, mkErr(i)
				}
				// Delay the early successes so failures finish first.
				time.Sleep(2 * time.Millisecond)
				return fakeResult(i), nil
			},
		}
	}
	for trial := 0; trial < 3; trial++ {
		pool := NewPool(8, nil)
		_, err := pool.Run(context.Background(), tasks)
		if err == nil || !strings.Contains(err.Error(), "fail-2") {
			t.Fatalf("trial %d: err = %v, want the task-2 failure", trial, err)
		}
	}
}

// TestPoolCacheDedup: tasks sharing a key execute once; the rest are
// cache hits returning the same result pointer.
func TestPoolCacheDedup(t *testing.T) {
	var executions atomic.Int64
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = Task{
			Key:   "same-key",
			Label: fmt.Sprintf("dedup-%d", i),
			Run: func() (*sim.Result, error) {
				executions.Add(1)
				return fakeResult(42), nil
			},
		}
	}
	pool := NewPool(4, NewResultCache(16))
	results, err := pool.Run(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if n := executions.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Error("cache returned distinct results for one key")
		}
	}
	if hits := pool.Stats().CacheHits; hits != 9 {
		t.Errorf("cache hits = %d, want 9", hits)
	}
}

// TestResultCacheLRU: the cache evicts least-recently-used entries at
// capacity and never grows past it.
func TestResultCacheLRU(t *testing.T) {
	c := NewResultCache(2)
	mk := func(key string, i int) *sim.Result {
		res, _, err := c.Do(key, func() (*sim.Result, error) { return fakeResult(i), nil })
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mk("a", 1)
	mk("b", 2)
	mk("a", 1) // refresh a
	mk("c", 3) // evicts b (LRU)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was evicted despite being recently used")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c missing")
	}
}

// TestResultCacheErrorNotCached: failures propagate but are retryable.
func TestResultCacheErrorNotCached(t *testing.T) {
	c := NewResultCache(4)
	calls := 0
	boom := errors.New("boom")
	fn := func() (*sim.Result, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return fakeResult(1), nil
	}
	if _, _, err := c.Do("k", fn); !errors.Is(err, boom) {
		t.Fatalf("first call err = %v", err)
	}
	res, hit, err := c.Do("k", fn)
	if err != nil || hit || res == nil {
		t.Fatalf("retry: res=%v hit=%v err=%v", res, hit, err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2", calls)
	}
}

// TestMemoSingleflight: Memo computes once per key under concurrency.
func TestMemoSingleflight(t *testing.T) {
	var m Memo[int, int]
	var computed atomic.Int64
	done := make(chan int, 32)
	for g := 0; g < 32; g++ {
		go func() {
			done <- m.Get(7, func() int {
				computed.Add(1)
				time.Sleep(time.Millisecond)
				return 99
			})
		}()
	}
	for g := 0; g < 32; g++ {
		if v := <-done; v != 99 {
			t.Fatalf("got %d", v)
		}
	}
	if n := computed.Load(); n != 1 {
		t.Errorf("computed %d times", n)
	}
	if m.Len() != 1 {
		t.Errorf("len = %d", m.Len())
	}
}

// TestDeriveSeedStable: derived seeds depend only on (base, key), differ
// across keys and bases, and are stable across calls.
func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(1, "fig13|pen=1.0|w3")
	if b := DeriveSeed(1, "fig13|pen=1.0|w3"); b != a {
		t.Error("DeriveSeed not stable")
	}
	if DeriveSeed(1, "fig13|pen=1.0|w5") == a {
		t.Error("DeriveSeed ignores the key")
	}
	if DeriveSeed(2, "fig13|pen=1.0|w3") == a {
		t.Error("DeriveSeed ignores the base")
	}
}

// TestShardOf: shard assignment is a pure, stable function of the key's
// content. The golden values pin the FNV-1a reduction so the assignment
// can never drift across releases — a drift would make two shard
// processes built from different versions both skip (or both run) the
// same cells. The partition property (every key in exactly one shard in
// [0, n)) and the n<=1 degenerate case are checked over many keys.
func TestShardOf(t *testing.T) {
	golden := []struct {
		key  string
		n    int
		want int
	}{
		{"a", 2, 0},
		{"a", 3, 1},
		{"a", 7, 5},
		{"b", 2, 1},
		{"b", 3, 1},
		{"b", 7, 0},
		{"9259dea90ff87395a9383610dc9a2be04aff24b3126d953a6b133d2a922df9df", 2, 1},
		{"9259dea90ff87395a9383610dc9a2be04aff24b3126d953a6b133d2a922df9df", 3, 1},
		{"9259dea90ff87395a9383610dc9a2be04aff24b3126d953a6b133d2a922df9df", 7, 0},
	}
	for _, g := range golden {
		if got := ShardOf(g.key, g.n); got != g.want {
			t.Errorf("ShardOf(%q, %d) = %d, want %d (assignment drifted)", g.key, g.n, got, g.want)
		}
	}
	counts := make([]int, 5)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		s := ShardOf(key, 5)
		if s < 0 || s >= 5 {
			t.Fatalf("ShardOf(%q, 5) = %d out of range", key, s)
		}
		if again := ShardOf(key, 5); again != s {
			t.Fatalf("ShardOf(%q, 5) unstable: %d then %d", key, s, again)
		}
		counts[s]++
		if ShardOf(key, 1) != 0 || ShardOf(key, 0) != 0 {
			t.Fatalf("ShardOf(%q, n<=1) != 0", key)
		}
	}
	for s, c := range counts {
		if c == 0 {
			t.Errorf("shard %d received none of 500 keys (degenerate distribution)", s)
		}
	}
}

// TestHashCanonical: the canonical hasher distinguishes field boundaries
// and bit-level float differences.
func TestHashCanonical(t *testing.T) {
	sum := func(build func(h *Hash)) string {
		h := NewHash()
		build(h)
		return h.Sum()
	}
	if sum(func(h *Hash) { h.String("ab"); h.String("c") }) ==
		sum(func(h *Hash) { h.String("a"); h.String("bc") }) {
		t.Error("string concatenation collides")
	}
	if sum(func(h *Hash) { h.Float64(0.0) }) == sum(func(h *Hash) { h.Float64(math.Copysign(0, -1)) }) {
		t.Error("hash conflates +0 and -0 (not bit-canonical)")
	}
	if sum(func(h *Hash) { h.Floats([]float64{1, 2}) }) ==
		sum(func(h *Hash) { h.Floats([]float64{1}); h.Floats([]float64{2}) }) {
		t.Error("float slice boundaries collide")
	}
	if sum(func(h *Hash) { h.Bool(true) }) == sum(func(h *Hash) { h.Bool(false) }) {
		t.Error("bools collide")
	}
}

// TestSweepRunOrder: Sweep returns grid cells in enumeration order.
func TestSweepRunOrder(t *testing.T) {
	pool := NewPool(4, NewResultCache(8))
	sweep := NewSweep(pool)
	const n = 12
	for i := 0; i < n; i++ {
		i := i
		idx := sweep.AddTask(Task{Key: fmt.Sprintf("cell-%d", i%3), Label: fmt.Sprintf("sweep-%d", i),
			Run: func() (*sim.Result, error) { return fakeResult(i % 3), nil }})
		if idx != i {
			t.Fatalf("AddTask returned %d, want %d", idx, i)
		}
	}
	results, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("returned %d cells, want %d", len(results), n)
	}
	for i, res := range results {
		if res.Rounds != i%3 {
			t.Fatalf("cell %d has result %d", i, res.Rounds)
		}
	}
	// 3 distinct keys -> at most 3 executions, 9 hits.
	if hits := pool.Stats().CacheHits; hits != n-3 {
		t.Errorf("cache hits = %d, want %d", hits, n-3)
	}
}

// TestPoolStopsDispatchAfterFailure: once a failure is observed, the
// pool must stop starting new tasks even while an earlier, slower task
// is still running (and thus the failing error cannot be flushed yet).
func TestPoolStopsDispatchAfterFailure(t *testing.T) {
	const n = 64
	release := make(chan struct{})
	var started atomic.Int64
	tasks := make([]Task, n)
	tasks[0] = Task{Label: "slow-ok", Run: func() (*sim.Result, error) {
		<-release
		return fakeResult(0), nil
	}}
	tasks[1] = Task{Label: "fast-fail", Run: func() (*sim.Result, error) {
		return nil, errors.New("fast-fail")
	}}
	for i := 2; i < n; i++ {
		i := i
		tasks[i] = Task{Label: fmt.Sprintf("late-%d", i), Run: func() (*sim.Result, error) {
			started.Add(1)
			time.Sleep(time.Millisecond)
			return fakeResult(i), nil
		}}
	}
	pool := NewPool(2, nil)
	go func() {
		// Hold task 0 long enough that, without the early stop, the
		// second worker would chew through most of the late tasks.
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	_, err := pool.Run(context.Background(), tasks)
	if err == nil || !strings.Contains(err.Error(), "fast-fail") {
		t.Fatalf("err = %v, want fast-fail", err)
	}
	// The halt races one in-flight dispatch per worker; anything near the
	// full task list means dispatch kept going.
	if s := started.Load(); s > 10 {
		t.Errorf("%d late tasks started after the failure was observed", s)
	}
}

// TestPoolGlobalBound: the worker bound holds across concurrent
// Run calls on one pool — a CLI launching every experiment at once must
// still run at most Workers simulations at a time.
func TestPoolGlobalBound(t *testing.T) {
	const bound = 2
	pool := NewPool(bound, nil)
	var inFlight, peak atomic.Int64
	mkBatch := func(n int) []Task {
		tasks := make([]Task, n)
		for i := range tasks {
			i := i
			tasks[i] = Task{
				Label: fmt.Sprintf("bound-%d", i),
				Run: func() (*sim.Result, error) {
					cur := inFlight.Add(1)
					for {
						old := peak.Load()
						if cur <= old || peak.CompareAndSwap(old, cur) {
							break
						}
					}
					time.Sleep(2 * time.Millisecond)
					inFlight.Add(-1)
					return fakeResult(i), nil
				},
			}
		}
		return tasks
	}
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Run(context.Background(), mkBatch(10)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > bound {
		t.Errorf("observed %d concurrent tasks, pool bound is %d", p, bound)
	}
}

// TestResultCachePanicPropagatesToWaiters: when the computing caller's
// compute panics, concurrent waiters on the same key must receive an
// error rather than a (nil, nil) outcome.
func TestResultCachePanicPropagatesToWaiters(t *testing.T) {
	c := NewResultCache(4)
	computing := make(chan struct{})
	var waiterInDo atomic.Bool

	waiterErr := make(chan error, 1)
	go func() {
		<-computing // the panicking computation has registered in-flight
		waiterInDo.Store(true)
		_, _, err := c.Do("k", func() (*sim.Result, error) {
			// Only reached if the waiter lost the race below and
			// recomputed; the nil error then fails the assertion.
			return fakeResult(1), nil
		})
		waiterErr <- err
	}()

	func() {
		defer func() { recover() }() // the panic still reaches the computing caller
		c.Do("k", func() (*sim.Result, error) {
			close(computing)
			// Panic only once the waiter is (microseconds from) blocking
			// on this flight; the sleep dwarfs its mutex acquisition.
			for !waiterInDo.Load() {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			panic("compute exploded")
		})
	}()

	select {
	case err := <-waiterErr:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter got err = %v, want panic sentinel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never unblocked")
	}
	// The failed key must be retryable.
	res, _, err := c.Do("k", func() (*sim.Result, error) { return fakeResult(2), nil })
	if err != nil || res == nil {
		t.Fatalf("retry after panic: res=%v err=%v", res, err)
	}
}

// TestPoolEmptyAndDefaults: degenerate inputs behave.
func TestPoolEmptyAndDefaults(t *testing.T) {
	pool := NewPool(0, nil)
	if pool.Workers() < 1 {
		t.Errorf("workers = %d", pool.Workers())
	}
	results, err := pool.Run(context.Background(), nil)
	if err != nil || len(results) != 0 {
		t.Errorf("empty run: %v %v", results, err)
	}
}
