package runner

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// recordingProbe collects spans under a lock (the pool calls the probe
// from worker goroutines).
type recordingProbe struct {
	mu    sync.Mutex
	spans []TaskSpan
}

func (p *recordingProbe) ObserveTask(sp TaskSpan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spans = append(p.spans, sp)
}

func (p *recordingProbe) byKey() map[string]TaskSpan {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]TaskSpan, len(p.spans))
	for _, sp := range p.spans {
		out[sp.Key] = sp
	}
	return out
}

// TestProbeOutcomeAttribution: one span per completed task, with the
// outcome naming the tier that satisfied it — executed on a cold key,
// memory-hit on a repeat, store-hit when only the backend holds it, and
// error on a failing task.
func TestProbeOutcomeAttribution(t *testing.T) {
	backend := newFakeBackend()
	if err := backend.Put("stored", fakeResult(3)); err != nil {
		t.Fatal(err)
	}
	cache := NewResultCache(8)
	cache.SetBackend(backend)
	probe := &recordingProbe{}
	pool := NewPool(2, cache)
	pool.SetProbe(probe)

	boom := errors.New("boom")
	tasks := []Task{
		{Key: "cold", Label: "first", Run: func() (*sim.Result, error) { return fakeResult(1), nil }},
		{Key: "cold", Label: "repeat", Run: func() (*sim.Result, error) { return fakeResult(1), nil }},
		{Key: "stored", Label: "from-store", Run: func() (*sim.Result, error) {
			t.Error("stored key must not compute")
			return fakeResult(9), nil
		}},
		{Key: "", Label: "uncached", Run: func() (*sim.Result, error) { return fakeResult(2), nil }},
	}
	if _, err := pool.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	// The failing task runs in its own batch so it cannot cancel the
	// others before they deliver.
	_, err := pool.Run(context.Background(), []Task{
		{Key: "bad", Label: "fails", Run: func() (*sim.Result, error) { return nil, boom }},
	})
	if err == nil {
		t.Fatal("failing task must surface its error")
	}

	spans := probe.byKey()
	if len(probe.spans) != 5 {
		t.Fatalf("probe saw %d spans, want 5", len(probe.spans))
	}
	wantOutcome := map[string]TaskOutcome{
		"stored": OutcomeStoreHit,
		"":       OutcomeExecuted,
		"bad":    OutcomeError,
	}
	for key, want := range wantOutcome {
		if got := spans[key].Outcome; got != want {
			t.Errorf("key %q outcome %q, want %q", key, got, want)
		}
	}
	// "cold" was submitted twice: one executed, one memory-hit (order of
	// observation depends on worker interleave, so count them).
	var executed, memory int
	for _, sp := range probe.spans {
		if sp.Key != "cold" {
			continue
		}
		switch sp.Outcome {
		case OutcomeExecuted:
			executed++
		case OutcomeMemoryHit:
			memory++
		default:
			t.Errorf("cold outcome %q", sp.Outcome)
		}
	}
	if executed != 1 || memory != 1 {
		t.Errorf("cold key: %d executed + %d memory-hit, want 1+1", executed, memory)
	}
	if sp := spans["bad"]; sp.Err == nil || !errors.Is(sp.Err, boom) {
		t.Errorf("error span must carry the task error, got %v", sp.Err)
	}
	for _, sp := range probe.spans {
		if sp.Start.IsZero() || sp.Duration < 0 {
			t.Errorf("span %q missing timing: %+v", sp.Key, sp)
		}
		if sp.Worker < 0 || sp.Worker >= pool.Workers() {
			t.Errorf("span %q worker slot %d out of range", sp.Key, sp.Worker)
		}
		if sp.Outcome == OutcomeMemoryHit || sp.Outcome == OutcomeStoreHit {
			if sp.Run != 0 {
				t.Errorf("cache hit %q reports run time %v", sp.Key, sp.Run)
			}
		}
	}
	// Span counts reconcile exactly with the pool's lifetime counters —
	// the acceptance identity palreport's totals row relies on.
	st := pool.Stats()
	var counts struct{ executed, hits, errs int64 }
	for _, sp := range probe.spans {
		switch sp.Outcome {
		case OutcomeExecuted:
			counts.executed++
		case OutcomeMemoryHit, OutcomeStoreHit:
			counts.hits++
		case OutcomeError:
			counts.errs++
		}
	}
	if counts.hits != st.CacheHits {
		t.Errorf("probe counted %d cache hits, pool %d", counts.hits, st.CacheHits)
	}
	if counts.executed+counts.errs != st.Executed {
		t.Errorf("probe counted %d+%d executed/error, pool executed %d",
			counts.executed, counts.errs, st.Executed)
	}
	if int64(len(probe.spans)) != st.Completed {
		t.Errorf("probe saw %d spans, pool completed %d", len(probe.spans), st.Completed)
	}
}

// TestProbeRunDuration: executed spans separate run time from total
// span time.
func TestProbeRunDuration(t *testing.T) {
	probe := &recordingProbe{}
	pool := NewPool(1, NewResultCache(4))
	pool.SetProbe(probe)
	_, err := pool.Run(context.Background(), []Task{{
		Key: "slow", Label: "slow",
		Run: func() (*sim.Result, error) {
			time.Sleep(5 * time.Millisecond)
			return fakeResult(1), nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sp := probe.byKey()["slow"]
	if sp.Run < 5*time.Millisecond {
		t.Errorf("run duration %v, want >= 5ms", sp.Run)
	}
	if sp.Duration < sp.Run {
		t.Errorf("span duration %v shorter than run %v", sp.Duration, sp.Run)
	}
}

// TestNilProbeUnchanged: with no probe, the pool behaves exactly as
// before (smoke for the nil fast path).
func TestNilProbeUnchanged(t *testing.T) {
	pool := NewPool(4, NewResultCache(4))
	var tasks []Task
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("k%d", i%4)
		tasks = append(tasks, Task{Key: key, Run: func() (*sim.Result, error) { return fakeResult(1), nil }})
	}
	if _, err := pool.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Completed != 16 {
		t.Errorf("completed %d, want 16", st.Completed)
	}
}

// TestProbeSlotsNeverOverlap: concurrent Run calls on one pool share
// its worker slots, and a span's Worker names the slot it held — so
// the spans of one slot never overlap in time, however many sweeps
// run at once. (Reporting a per-Run goroutine index instead let two
// sweeps' "worker 0" run side by side, and a utilization report
// summed them past 100%.)
func TestProbeSlotsNeverOverlap(t *testing.T) {
	const workers = 2
	probe := &recordingProbe{}
	pool := NewPool(workers, nil)
	pool.SetProbe(probe)
	tasks := make([]Task, 6)
	for i := range tasks {
		tasks[i] = Task{Label: fmt.Sprintf("t%d", i), Run: func() (*sim.Result, error) {
			time.Sleep(2 * time.Millisecond)
			return fakeResult(1), nil
		}}
	}
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Run(context.Background(), tasks); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	bySlot := make(map[int][]TaskSpan)
	for _, sp := range probe.spans {
		if sp.Worker < 0 || sp.Worker >= workers {
			t.Fatalf("span %s on worker %d, want 0..%d", sp.Label, sp.Worker, workers-1)
		}
		bySlot[sp.Worker] = append(bySlot[sp.Worker], sp)
	}
	if len(probe.spans) != 3*len(tasks) {
		t.Fatalf("probe saw %d spans, want %d", len(probe.spans), 3*len(tasks))
	}
	for slot, spans := range bySlot {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
		for i := 1; i < len(spans); i++ {
			if end := spans[i-1].Start.Add(spans[i-1].Duration); spans[i].Start.Before(end) {
				t.Errorf("slot %d: span %s starts %v before span %s ends",
					slot, spans[i].Label, end.Sub(spans[i].Start), spans[i-1].Label)
			}
		}
	}
}
