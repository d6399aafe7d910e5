package runner

import (
	"sync"

	"repro/internal/sim"
)

// SnapshotBackend is the persistent tier behind a SnapshotCache: a
// durable, cross-process store of engine snapshots (internal/store is
// the implementation; the interface lives here so the dependency arrow
// keeps pointing downward, exactly like Backend for results). Get
// returns (snapshot, found, error); a lookup error is NOT a miss — the
// cache degrades to capturing. Implementations must be safe for
// concurrent use; snapshots handed over are shared and read-only.
type SnapshotBackend interface {
	GetSnapshot(key string) (*sim.Snapshot, bool, error)
	PutSnapshot(key string, snap *sim.Snapshot) error
}

// SnapshotCache deduplicates prefix captures across the cells of a
// sweep: all cells sharing one prefix key (scenario.Built.PrefixKey)
// get one capture — concurrent callers wait on the single in-flight
// computation — and, with a backend attached, captures persist across
// processes. Snapshots are never evicted within a process: a sweep
// touches one snapshot per prefix group and groups are few; the
// persistent tier is bounded by the store's GC like any other object.
//
// A backend failure never fails a caller: lookups degrade to
// capturing, write-throughs are dropped, and both are counted in
// Stats().StoreErrors.
type SnapshotCache struct {
	mu      sync.Mutex
	snaps   map[string]*sim.Snapshot
	flight  flight[sim.Snapshot]
	backend SnapshotBackend

	captured    int64
	hits        int64
	storeHits   int64
	stored      int64
	storeErrors int64
}

// SnapshotCacheStats is a snapshot of the cache's counters.
type SnapshotCacheStats struct {
	// Captured counts prefixes this process actually simulated. Hits
	// counts callers served from memory or another caller's in-flight
	// capture; StoreHits counts lookups satisfied by the backend.
	Captured, Hits, StoreHits int64
	// Stored counts snapshots written through to the backend;
	// StoreErrors counts backend failures the cache degraded around.
	Stored, StoreErrors int64
}

// NewSnapshotCache returns a snapshot cache; backend may be nil for a
// memory-only cache.
func NewSnapshotCache(backend SnapshotBackend) *SnapshotCache {
	c := &SnapshotCache{snaps: make(map[string]*sim.Snapshot), backend: backend}
	c.flight = newFlight[sim.Snapshot](&c.mu)
	return c
}

// Stats returns the cache's counters.
func (c *SnapshotCache) Stats() SnapshotCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SnapshotCacheStats{
		Captured:    c.captured,
		Hits:        c.hits,
		StoreHits:   c.storeHits,
		Stored:      c.stored,
		StoreErrors: c.storeErrors,
	}
}

// GetOrCapture returns the snapshot for key — from memory, another
// caller's in-flight capture, or the backend — or runs capture exactly
// once across concurrent callers and caches (and writes through) the
// outcome. fromCache reports that this call did NOT perform the
// capture: the caller resumed shared work, which is what the pool
// surfaces as a snapshot fork. Errors from capture propagate to every
// waiter but are never cached, so a failed capture can be retried.
func (c *SnapshotCache) GetOrCapture(key string, capture func() (*sim.Snapshot, error)) (snap *sim.Snapshot, fromCache bool, err error) {
	storeHit := false
	snap, shared, err := c.flight.do(key, func() (*sim.Snapshot, bool) {
		s, ok := c.snaps[key]
		return s, ok
	}, func() (*sim.Snapshot, error) {
		if c.backend != nil {
			s, ok, berr := c.backend.GetSnapshot(key)
			switch {
			case berr != nil:
				c.count(&c.storeErrors)
			case ok:
				c.count(&c.storeHits)
				storeHit = true
				return s, nil
			}
		}
		c.count(&c.captured)
		s, err := capture()
		if err == nil && s != nil && c.backend != nil {
			if berr := c.backend.PutSnapshot(key, s); berr != nil {
				c.count(&c.storeErrors)
			} else {
				c.count(&c.stored)
			}
		}
		return s, err
	}, func(s *sim.Snapshot) { c.snaps[key] = s })
	if shared {
		c.count(&c.hits)
	}
	return snap, shared || storeHit, err
}

// count bumps one counter under the cache mutex.
func (c *SnapshotCache) count(p *int64) {
	c.mu.Lock()
	*p++
	c.mu.Unlock()
}
