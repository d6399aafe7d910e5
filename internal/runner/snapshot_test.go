package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// fakeSnapBackend is an in-memory SnapshotBackend with injectable
// failures, standing in for the persistent store.
type fakeSnapBackend struct {
	mu     sync.Mutex
	snaps  map[string]*sim.Snapshot
	getErr error
	putErr error
	gets   int
	puts   int
}

func newFakeSnapBackend() *fakeSnapBackend {
	return &fakeSnapBackend{snaps: make(map[string]*sim.Snapshot)}
}

func (b *fakeSnapBackend) GetSnapshot(key string) (*sim.Snapshot, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	if b.getErr != nil {
		return nil, false, b.getErr
	}
	s, ok := b.snaps[key]
	return s, ok, nil
}

func (b *fakeSnapBackend) PutSnapshot(key string, snap *sim.Snapshot) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.puts++
	if b.putErr != nil {
		return b.putErr
	}
	b.snaps[key] = snap
	return nil
}

// TestSnapshotCacheSingleFlight: N concurrent callers of one key run
// the capture exactly once; exactly one caller reports fromCache=false.
func TestSnapshotCacheSingleFlight(t *testing.T) {
	c := NewSnapshotCache(nil)
	var captures atomic.Int64
	want := &sim.Snapshot{Rounds: 7}

	const callers = 16
	var wg sync.WaitGroup
	var owners atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, fromCache, err := c.GetOrCapture("k", func() (*sim.Snapshot, error) {
				captures.Add(1)
				return want, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if snap != want {
				t.Error("caller got a different snapshot")
			}
			if !fromCache {
				owners.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := captures.Load(); got != 1 {
		t.Errorf("capture ran %d times, want 1", got)
	}
	if got := owners.Load(); got != 1 {
		t.Errorf("%d callers reported fromCache=false, want exactly 1", got)
	}
	st := c.Stats()
	if st.Captured != 1 || st.Hits != callers-1 {
		t.Errorf("stats = %+v, want Captured 1, Hits %d", st, callers-1)
	}
}

// TestSnapshotCacheErrorNotCached: a failed capture propagates to
// every waiter but is retried on the next call.
func TestSnapshotCacheErrorNotCached(t *testing.T) {
	c := NewSnapshotCache(nil)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.GetOrCapture("k", func() (*sim.Snapshot, error) {
		calls++
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	want := &sim.Snapshot{Rounds: 3}
	snap, fromCache, err := c.GetOrCapture("k", func() (*sim.Snapshot, error) {
		calls++
		return want, nil
	})
	if err != nil || snap != want || fromCache {
		t.Fatalf("retry: snap=%v fromCache=%v err=%v, want fresh capture", snap, fromCache, err)
	}
	if calls != 2 {
		t.Fatalf("capture called %d times, want 2 (error must not be cached)", calls)
	}
}

// TestSnapshotCacheBackendTier: a backend hit avoids the capture and
// counts as fromCache; a capture writes through; a backend failure
// degrades to capturing without failing the caller.
func TestSnapshotCacheBackendTier(t *testing.T) {
	b := newFakeSnapBackend()
	stored := &sim.Snapshot{Rounds: 5}
	b.snaps["warm"] = stored

	c := NewSnapshotCache(b)
	snap, fromCache, err := c.GetOrCapture("warm", func() (*sim.Snapshot, error) {
		t.Fatal("capture ran despite a backend hit")
		return nil, nil
	})
	if err != nil || snap != stored || !fromCache {
		t.Fatalf("backend hit: snap=%v fromCache=%v err=%v", snap, fromCache, err)
	}

	fresh := &sim.Snapshot{Rounds: 9}
	if _, fromCache, err := c.GetOrCapture("cold", func() (*sim.Snapshot, error) { return fresh, nil }); err != nil || fromCache {
		t.Fatalf("cold key: fromCache=%v err=%v, want fresh capture", fromCache, err)
	}
	if got := b.snaps["cold"]; got != fresh {
		t.Error("capture was not written through to the backend")
	}

	b.getErr = fmt.Errorf("disk on fire")
	b.putErr = b.getErr
	degraded := &sim.Snapshot{Rounds: 2}
	snap, fromCache, err = c.GetOrCapture("k2", func() (*sim.Snapshot, error) { return degraded, nil })
	if err != nil || snap != degraded || fromCache {
		t.Fatalf("backend failure must degrade to capturing: snap=%v fromCache=%v err=%v", snap, fromCache, err)
	}

	st := c.Stats()
	if st.StoreHits != 1 || st.Stored != 1 || st.Captured != 2 || st.StoreErrors != 2 {
		t.Errorf("stats = %+v, want StoreHits 1, Stored 1, Captured 2, StoreErrors 2", st)
	}
}

// TestSnapshotCachePanicPropagatesToWaiters: when the capturing
// caller's capture panics, concurrent waiters on the same key must
// receive an error rather than a (nil, false, nil) outcome, and the key
// must stay retryable.
func TestSnapshotCachePanicPropagatesToWaiters(t *testing.T) {
	c := NewSnapshotCache(nil)
	capturing := make(chan struct{})
	var waiterIn atomic.Bool

	waiterErr := make(chan error, 1)
	go func() {
		<-capturing // the panicking capture has registered in-flight
		waiterIn.Store(true)
		_, _, err := c.GetOrCapture("k", func() (*sim.Snapshot, error) {
			// Only reached if the waiter lost the race below and
			// captured itself; the nil error then fails the assertion.
			return &sim.Snapshot{Rounds: 1}, nil
		})
		waiterErr <- err
	}()

	func() {
		defer func() { recover() }() // the panic still reaches the capturing caller
		c.GetOrCapture("k", func() (*sim.Snapshot, error) {
			close(capturing)
			// Panic only once the waiter is (microseconds from) blocking
			// on this flight; the sleep dwarfs its mutex acquisition.
			for !waiterIn.Load() {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			panic("capture exploded")
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
	want := &sim.Snapshot{Rounds: 2}
	snap, fromCache, err := c.GetOrCapture("k", func() (*sim.Snapshot, error) { return want, nil })
	if err != nil || snap != want || fromCache {
		t.Fatalf("retry after panic: snap=%v fromCache=%v err=%v, want a fresh capture", snap, fromCache, err)
	}
}
