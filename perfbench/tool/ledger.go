package main

import (
	"bytes"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/journal"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
)

// clockCost is the calibrated cost of timing one call: inner is the part
// a measured interval contains, outer the whole cost the two clock reads
// add to the caller. Layer times subtract inner per call and sim self
// time subtracts outer per wrapped call, so both report the work rather
// than the instrumentation.
type clockCost struct{ inner, outer time.Duration }

func calibrate() clockCost {
	const n = 1 << 18
	var probe span
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.add(time.Now())
	}
	return clockCost{inner: probe.d / n, outer: time.Since(t0) / n}
}

// net is s's measured time less the clock reads inside it, in seconds.
func (c clockCost) net(s span) float64 {
	return max(s.d-time.Duration(s.calls)*c.inner, 0).Seconds()
}

// ledger accumulates one traced replay: the merged per-run layer times,
// the engine entry points around them, and the orchestration, store,
// codec and journal layers the replay drives. Pool workers report into
// it concurrently; fields they touch are guarded by mu.
type ledger struct {
	cost    clockCost
	workers int

	mu                      sync.Mutex
	layers                  *layerTimes
	runs, captures, resumes span
	counters                sim.Counters

	// Figure runs carry neither counters nor wrapped policies; what their
	// results expose is summed here instead.
	resultRounds, resultPreemptions, resultMigrations int64
	placeTimes                                        span

	cells                             int
	loadExpand, build, key, prefixKey time.Duration
	groups                            map[string]time.Duration

	submitted, executed, forks, memoryHits, storeHits int64
	snapCaptures, snapHits                            int64
	taskRun, taskTotal, capacity                      time.Duration
	runByPolicy                                       map[string]time.Duration

	get, put, snapGet, snapPut span
	getHits                    int64
	journal                    span

	// computed and snapshots feed the codec timing after the sweeps.
	computed                               []*sim.Result
	snapshots                              []*sim.Snapshot
	encode, decode, snapEncode, snapDecode span
	encodeBytes, snapBytes                 int64
}

func newLedger(workers int) *ledger {
	return &ledger{
		cost:        calibrate(),
		workers:     workers,
		layers:      newLayerTimes(),
		runByPolicy: make(map[string]time.Duration),
	}
}

// count records one call of d into s.
func (l *ledger) count(s *span, d time.Duration) {
	l.mu.Lock()
	s.calls++
	s.d += d
	l.mu.Unlock()
}

// observeTask folds one runner task span into the orchestration totals.
func (l *ledger) observeTask(sp runner.TaskSpan) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.taskRun += sp.Run
	l.taskTotal += sp.Duration
	if p, ok := labelPolicy(sp.Label); ok {
		l.runByPolicy[p] += sp.Run
	}
}

// addPool folds one finished pool's counters in; wall is how long its
// sweep ran, the base of runner.busy_frac.
func (l *ledger) addPool(pool *runner.Pool, snaps *runner.SnapshotCache, wall time.Duration) {
	st := pool.Stats()
	cs := pool.Cache().Stats()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.submitted += st.Submitted
	l.executed += st.Executed
	l.forks += st.SnapshotForks
	l.memoryHits += cs.Hits
	l.storeHits += cs.StoreHits
	l.capacity += time.Duration(pool.Workers()) * wall
	if snaps != nil {
		ss := snaps.Stats()
		l.snapCaptures += ss.Captured
		l.snapHits += ss.Hits + ss.StoreHits
	}
}

// labelPolicy extracts the placement policy from a figure task label
// ("fig14: synergy-8 PAL/fifo L1.7") as its registry name.
func labelPolicy(label string) (string, bool) {
	for _, tok := range strings.Fields(label) {
		name, _, ok := strings.Cut(tok, "/")
		if !ok {
			continue
		}
		for _, p := range experiments.AllPolicies() {
			if p.String() == name {
				return p.RegistryName(), true
			}
		}
	}
	return "", false
}

// timedStore is the store behind the replay's result and snapshot
// caches, timing every call. Put and PutSnapshot include the codec and
// the fsync; Get and GetSnapshot include the decode.
type timedStore struct {
	st *store.Store
	l  *ledger
}

func (s timedStore) Get(key string) (*sim.Result, bool, error) {
	t0 := time.Now()
	res, ok, err := s.st.Get(key)
	d := time.Since(t0)
	s.l.mu.Lock()
	s.l.get.calls++
	s.l.get.d += d
	if ok {
		s.l.getHits++
	}
	s.l.mu.Unlock()
	return res, ok, err
}

func (s timedStore) Put(key string, res *sim.Result) error {
	t0 := time.Now()
	err := s.st.Put(key, res)
	s.l.count(&s.l.put, time.Since(t0))
	return err
}

func (s timedStore) GetSnapshot(key string) (*sim.Snapshot, bool, error) {
	t0 := time.Now()
	snap, ok, err := s.st.GetSnapshot(key)
	s.l.count(&s.l.snapGet, time.Since(t0))
	return snap, ok, err
}

func (s timedStore) PutSnapshot(key string, snap *sim.Snapshot) error {
	t0 := time.Now()
	err := s.st.PutSnapshot(key, snap)
	s.l.count(&s.l.snapPut, time.Since(t0))
	s.l.mu.Lock()
	s.l.snapshots = append(s.l.snapshots, snap)
	s.l.mu.Unlock()
	return err
}

// timedProbe observes the replay's task spans and times the journal
// append behind them when a journal is attached.
type timedProbe struct {
	l  *ledger
	jw *journal.Writer
}

func (p timedProbe) ObserveTask(sp runner.TaskSpan) {
	if p.jw != nil {
		t0 := time.Now()
		p.jw.ObserveTask(sp)
		p.l.count(&p.l.journal, time.Since(t0))
	}
	p.l.observeTask(sp)
}

// resultRecorder is the figure replay's runner.Backend: it never hits,
// and its write-through sees every computed result of a keyed task.
type resultRecorder struct{ l *ledger }

func (r resultRecorder) Get(string) (*sim.Result, bool, error) { return nil, false, nil }

func (r resultRecorder) Put(_ string, res *sim.Result) error {
	l := r.l
	l.mu.Lock()
	defer l.mu.Unlock()
	l.resultRounds += int64(res.Rounds)
	for _, j := range res.Jobs {
		l.resultPreemptions += int64(j.Preemptions)
		l.resultMigrations += int64(j.Migrations)
	}
	for _, sec := range res.PlaceTimes {
		l.placeTimes.calls++
		l.placeTimes.d += time.Duration(sec * float64(time.Second))
	}
	return nil
}

// timeCodecs times the result and snapshot codecs directly on the
// replay's computed results and captured snapshots. It runs after the
// sweeps, on one goroutine.
func (l *ledger) timeCodecs() error {
	var buf bytes.Buffer
	for _, res := range l.computed {
		buf.Reset()
		t0 := time.Now()
		if err := export.EncodeResult(&buf, res); err != nil {
			return err
		}
		l.encode.add(t0)
		l.encodeBytes += int64(buf.Len())
		t0 = time.Now()
		if _, err := export.DecodeResult(&buf); err != nil {
			return err
		}
		l.decode.add(t0)
	}
	for _, snap := range l.snapshots {
		buf.Reset()
		t0 := time.Now()
		if err := export.EncodeSnapshot(&buf, snap); err != nil {
			return err
		}
		l.snapEncode.add(t0)
		l.snapBytes += int64(buf.Len())
		t0 = time.Now()
		if _, err := export.DecodeSnapshot(&buf); err != nil {
			return err
		}
		l.snapDecode.add(t0)
	}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metrics renders the ledger as the benchmark's per-layer metrics.
// Layers the replay did not drive report zero.
func (l *ledger) metrics() map[string]float64 {
	c := l.cost
	ctr := &l.counters
	stepped := ctr.TotalRounds()
	entries := l.runs
	entries.merge(l.captures)
	entries.merge(l.resumes)
	children := l.layers.children()
	self := max(entries.d-children.d-time.Duration(children.calls)*(c.outer-c.inner), 0)
	const mb = 1 << 20
	m := map[string]float64{
		"sim.rounds":              float64(stepped + l.resultRounds),
		"sim.materialized_rounds": float64(ctr.MaterializedRounds),
		"sim.bulk_rounds":         float64(ctr.BulkRounds()),
		"sim.idle_rounds":         float64(ctr.IdleGapRounds),
		"sim.materialized_frac":   ratio(ctr.MaterializedRounds, stepped),
		"sim.self_s":              self.Seconds(),
		"sim.self_ns_per_round":   ratio(int64(self), stepped),
		"sim.preemptions":         float64(ctr.Preemptions + l.resultPreemptions),
		"sim.migrations":          float64(ctr.Migrations + l.resultMigrations),
		"sim.capture_calls":       float64(l.captures.calls),
		"sim.capture_s":           l.captures.d.Seconds(),
		"sim.resume_calls":        float64(l.resumes.calls),
		"sim.resume_s":            l.resumes.d.Seconds(),

		"sched.order_calls":   float64(l.layers.order.calls),
		"sched.order_s":       c.net(l.layers.order),
		"sched.ceiling_calls": float64(l.layers.ceiling.calls),
		"sched.ceiling_s":     c.net(l.layers.ceiling),

		"place.calls": float64(l.layers.place.calls + l.placeTimes.calls),
		"place.jobs":  float64(l.layers.placeJobs),
		"place.s":     c.net(l.layers.place) + l.placeTimes.d.Seconds(),

		"metrics.observe_calls":  float64(l.layers.metrics.calls),
		"metrics.observe_s":      c.net(l.layers.metrics),
		"decision.observe_calls": float64(l.layers.decision.calls),
		"decision.observe_s":     c.net(l.layers.decision),

		"scenario.cells":         float64(l.cells),
		"scenario.load_expand_s": l.loadExpand.Seconds(),
		"scenario.build_s":       l.build.Seconds(),
		"scenario.key_s":         l.key.Seconds(),
		"scenario.prefix_key_s":  l.prefixKey.Seconds(),

		"experiments.profile.s":  l.groups["profile"].Seconds(),
		"experiments.sia.s":      l.groups["sia"].Seconds(),
		"experiments.synergy.s":  l.groups["synergy"].Seconds(),
		"experiments.testbed.s":  l.groups["testbed"].Seconds(),
		"experiments.ablation.s": l.groups["ablation"].Seconds(),

		"runner.tasks":             float64(l.submitted),
		"runner.executed":          float64(l.executed),
		"runner.forks":             float64(l.forks),
		"runner.memory_hits":       float64(l.memoryHits),
		"runner.store_hits":        float64(l.storeHits),
		"runner.run_s":             l.taskRun.Seconds(),
		"runner.overhead_s":        (l.taskTotal - l.taskRun).Seconds(),
		"runner.busy_frac":         ratio(int64(l.taskTotal), int64(l.capacity)),
		"runner.snapshot_captures": float64(l.snapCaptures),
		"runner.snapshot_hits":     float64(l.snapHits),

		"export.encode_calls":      float64(l.encode.calls),
		"export.encode_s":          l.encode.d.Seconds(),
		"export.encode_mb":         float64(l.encodeBytes) / mb,
		"export.decode_s":          l.decode.d.Seconds(),
		"export.snapshot_encode_s": l.snapEncode.d.Seconds(),
		"export.snapshot_decode_s": l.snapDecode.d.Seconds(),
		"export.snapshot_mb":       float64(l.snapBytes) / mb,

		"store.put_calls":      float64(l.put.calls),
		"store.put_s":          l.put.d.Seconds(),
		"store.get_calls":      float64(l.get.calls),
		"store.get_s":          l.get.d.Seconds(),
		"store.get_hit_frac":   ratio(l.getHits, l.get.calls),
		"store.snapshot_put_s": l.snapPut.d.Seconds(),
		"store.snapshot_get_s": l.snapGet.d.Seconds(),

		"journal.append_calls": float64(l.journal.calls),
		"journal.append_s":     l.journal.d.Seconds(),
	}
	if l.groups != nil {
		m["experiments.cells"] = float64(l.submitted)
		m["experiments.dedup_frac"] = ratio(l.memoryHits, l.submitted)
	}
	for _, p := range experiments.AllPolicies() {
		name := p.RegistryName()
		var s span
		if ps := l.layers.byPolicy[name]; ps != nil {
			s = *ps
		}
		m["place."+name+".calls"] = float64(s.calls)
		m["place."+name+".s"] = c.net(s)
		m["experiments.run_s."+name] = l.runByPolicy[name].Seconds()
	}
	return m
}
