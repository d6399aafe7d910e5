package runner

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/sim"
)

// DefaultCacheCapacity bounds the result cache when the caller does not
// choose a size. 512 comfortably covers a full paper-scale regeneration
// (the complete evaluation is a few hundred distinct simulations) while
// keeping the worst case around a few hundred MB of retained results.
const DefaultCacheCapacity = 512

// Backend is a second cache tier behind the in-memory LRU: a durable,
// cross-process result store (internal/store is the implementation; the
// interface lives here so the dependency arrow keeps pointing downward).
// Get returns (result, found, error); a lookup error is NOT a miss —
// the cache degrades to computing, counting the failure in its stats.
// Put persists a freshly computed result. Implementations must be safe
// for concurrent use; values handed over are shared and read-only.
type Backend interface {
	Get(key string) (*sim.Result, bool, error)
	Put(key string, res *sim.Result) error
}

// ResultCache is a content-addressed store of simulation results with
// LRU eviction and single-flight deduplication: concurrent requests for
// the same key run the computation once and share the outcome. It
// replaces the ad-hoc sync.Map caches the experiments layer used to
// keep, which never evicted and were keyed on name strings rather than
// the full run configuration.
//
// With a Backend attached (SetBackend), the cache becomes two-tiered:
// the in-memory LRU is tier 1, the backend tier 2. A memory miss
// consults the backend before computing, a successful computation is
// written through, and single-flight spans both tiers — concurrent
// callers for one key share a single backend lookup and at most one
// computation.
//
// Cached values are shared between callers and must be treated as
// read-only; every consumer in this repository only reads results.
type ResultCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	entries  map[string]*list.Element // key -> element holding *cacheEntry
	flight   flight[sim.Result]
	backend  Backend
	// hadBackend remembers that SetBackend attached a non-nil backend,
	// so BackendDetached can distinguish "never had a store" from "the
	// circuit breaker dropped it".
	hadBackend bool

	hits        int64 // memory-tier hits (including in-flight dedup)
	misses      int64 // both tiers missed: the computation actually ran
	storeHits   int64 // memory missed, backend hit
	stored      int64 // results written through to the backend
	storeErrors int64 // backend Get/Put failures (degraded, not fatal)
	// errorStreak counts consecutive backend failures; at
	// backendErrorLimit the backend is dropped for the cache's lifetime,
	// so a hung or broken store costs at most a bounded number of I/O
	// timeouts before the cache truly degrades to memory-only.
	errorStreak int
}

// backendErrorLimit is the consecutive-failure count at which the
// backend is detached. Any success resets the streak.
const backendErrorLimit = 5

// cacheEntry is the LRU list payload.
type cacheEntry struct {
	key string
	res *sim.Result
}

// flight is the single-flight table both caches share: concurrent
// lookups of one key wait on one in-progress load instead of repeating
// it. It holds no values itself — each cache supplies its memory tier
// (hit) and its retention policy (keep). mu is the owning cache's
// mutex; it guards the table and is held around hit and keep.
type flight[T any] struct {
	mu    *sync.Mutex
	calls map[string]*call[T]
}

// call is one in-progress load; done closes once v and err are final.
type call[T any] struct {
	done chan struct{}
	v    *T
	err  error
}

// newFlight returns an empty table guarded by mu.
func newFlight[T any](mu *sync.Mutex) flight[T] {
	return flight[T]{mu: mu, calls: make(map[string]*call[T])}
}

// do returns the value for key: from hit, from another caller's
// in-flight load, or by running load once. shared reports the first
// two, i.e. that this call did not load. A successful load is handed
// to keep before any waiter wakes; an error reaches every waiter but is
// never kept, so the key can be retried. A panicking load keeps
// panicking in its own caller while its waiters get an error — never a
// (nil, nil) outcome they would dereference.
func (f *flight[T]) do(key string, hit func() (*T, bool), load func() (*T, error), keep func(*T)) (v *T, shared bool, err error) {
	f.mu.Lock()
	if v, ok := hit(); ok {
		f.mu.Unlock()
		return v, true, nil
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.v, true, c.err
	}
	c := &call[T]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			c.err = fmt.Errorf("runner: cache load for key %q panicked", key)
		}
		f.mu.Lock()
		delete(f.calls, key)
		if c.err == nil && c.v != nil {
			keep(c.v)
		}
		f.mu.Unlock()
		close(c.done)
	}()
	c.v, c.err = load()
	returned = true
	return c.v, false, c.err
}

// NewResultCache returns a cache holding at most capacity results.
// capacity <= 0 selects DefaultCacheCapacity.
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	c := &ResultCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
	}
	c.flight = newFlight[sim.Result](&c.mu)
	return c
}

// SetBackend attaches (or, with nil, detaches) the durable second tier.
// Call it before handing the cache to a pool; swapping backends while
// lookups are in flight routes each lookup through whichever backend it
// observed first.
func (c *ResultCache) SetBackend(b Backend) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backend = b
	c.hadBackend = b != nil
}

// BackendDetached reports whether a previously attached backend was
// dropped by the consecutive-failure circuit breaker: the cache is now
// memory-only and fresh results are no longer persisted. CLIs surface
// this as an explicit degradation warning instead of failing sweeps.
func (c *ResultCache) BackendDetached() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hadBackend && c.backend == nil
}

// CacheStats is a snapshot of the cache's counters, split by tier.
type CacheStats struct {
	// Hits counts memory-tier hits, including callers that waited on
	// another caller's in-flight computation. Misses counts lookups both
	// tiers missed — i.e. computations that actually ran.
	Hits, Misses int64
	// StoreHits counts lookups satisfied by the backend tier; Stored
	// counts results written through to it; StoreErrors counts backend
	// failures the cache degraded around (computing instead of loading,
	// or skipping the write-through).
	StoreHits, Stored, StoreErrors int64
	Entries                        int
}

// Stats returns the cache's counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits,
		Misses:      c.misses,
		StoreHits:   c.storeHits,
		Stored:      c.stored,
		StoreErrors: c.storeErrors,
		Entries:     c.ll.Len(),
	}
}

// Len returns the number of cached results.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// tier names which layer satisfied a cache lookup; the pool translates
// it into the probe's TaskOutcome and the per-tier hit counters.
type tier uint8

const (
	tierComputed tier = iota // both tiers missed: compute ran
	tierMemory               // memory LRU or another caller's in-flight computation
	tierStore                // backend (persistent store) tier
)

// Do returns the cached result for key — from the memory tier, another
// caller's in-flight lookup, or the backend tier — or runs compute
// exactly once across concurrent callers and caches (and writes
// through) a successful outcome. The second return reports whether the
// value came from either cache tier or another caller's in-flight
// computation (a "hit" in the dedup sense); it is false only when this
// call actually computed. Errors from compute are propagated to every
// waiter but never cached, so a failed computation can be retried.
// Backend failures never fail the lookup: a broken store degrades the
// cache to memory-only and is counted in Stats().StoreErrors.
func (c *ResultCache) Do(key string, compute func() (*sim.Result, error)) (*sim.Result, bool, error) {
	res, src, err := c.do(key, compute)
	return res, src != tierComputed, err
}

// do is Do with the satisfying tier attributed, for the pool's probe.
func (c *ResultCache) do(key string, compute func() (*sim.Result, error)) (*sim.Result, tier, error) {
	src := tierComputed
	res, shared, err := c.flight.do(key, func() (*sim.Result, bool) {
		el, ok := c.entries[key]
		if !ok {
			return nil, false
		}
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).res, true
	}, func() (*sim.Result, error) {
		c.mu.Lock()
		backend := c.backend
		c.mu.Unlock()
		// Backend tier. The flight is already registered, so concurrent
		// callers for this key wait on one disk read, never a stampede.
		if backend != nil {
			res, ok, err := backend.Get(key)
			switch {
			case err != nil:
				c.backendFailed()
			case ok:
				c.backendWorked(&c.storeHits)
				src = tierStore
				return res, nil
			default:
				c.backendWorked(nil) // clean miss: the backend is healthy
			}
		}
		c.count(&c.misses)
		res, err := compute()
		if err == nil && res != nil && backend != nil {
			if err := backend.Put(key, res); err != nil {
				c.backendFailed()
			} else {
				c.backendWorked(&c.stored)
			}
		}
		return res, err
	}, func(res *sim.Result) { c.add(key, res) })
	if shared {
		c.count(&c.hits)
		return res, tierMemory, err
	}
	return res, src, err
}

// count bumps one counter under the cache mutex.
func (c *ResultCache) count(p *int64) {
	c.mu.Lock()
	*p++
	c.mu.Unlock()
}

// backendFailed records one backend failure; backendErrorLimit
// consecutive failures detach the backend so a hung store costs a
// bounded number of timeouts before the cache is truly memory-only.
func (c *ResultCache) backendFailed() {
	c.mu.Lock()
	c.storeErrors++
	c.errorStreak++
	if c.errorStreak >= backendErrorLimit {
		c.backend = nil
	}
	c.mu.Unlock()
}

// backendWorked resets the failure streak, bumping counter when given.
func (c *ResultCache) backendWorked(counter *int64) {
	c.mu.Lock()
	if counter != nil {
		*counter++
	}
	c.errorStreak = 0
	c.mu.Unlock()
}

// Get returns the cached result for key without computing anything.
func (c *ResultCache) Get(key string) (*sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).res, true
	}
	return nil, false
}

// add inserts a value, evicting the least-recently-used entry when the
// cache is full. Caller holds c.mu.
func (c *ResultCache) add(key string, res *sim.Result) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Memo is a small generic single-flight memoization table for values
// that are expensive to build but few in number (profiles, binned
// profiles). Unlike ResultCache it never evicts — callers use it for
// key spaces they know are bounded. The zero value is ready to use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	mu   sync.Mutex
	done bool
	v    V
}

// Get returns the memoized value for key, computing it at most once even
// under concurrent access. A panicking compute propagates to its caller
// and leaves the entry uncomputed (not poisoned with a zero value), so
// the next Get retries.
func (m *Memo[K, V]) Get(key K, compute func() V) V {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	e, ok := m.m[key]
	if !ok {
		e = &memoEntry[V]{}
		m.m[key] = e
	}
	m.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.v = compute()
		e.done = true
	}
	return e.v
}

// Len returns the number of memoized keys.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
