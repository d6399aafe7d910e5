package main

// Timing decorators for the traced run. Each wrapper times the calls the
// engine makes into one layer — the scheduler, the placer, the metrics
// and decision sinks — and forwards every optional capability interface
// the engine or the codecs probe for (sim.TotalOrderScheduler,
// sim.PartitionStableScheduler, sim.SnapshotState, the sinks' Payload
// and Trace) exactly when the wrapped value has it, so a wrapped run
// steps through the same regimes and encodes to the same bytes as an
// unwrapped one (wrap_test.go pins both).

import (
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// span accumulates the calls into one timed layer.
type span struct {
	calls int64
	d     time.Duration
}

func (s *span) add(t0 time.Time) {
	s.calls++
	s.d += time.Since(t0)
}

func (s *span) merge(o span) {
	s.calls += o.calls
	s.d += o.d
}

// layerTimes is one simulation's ledger of wrapped calls. The engine
// calls a run's policies and sinks from a single goroutine, so the run
// owns its ledger without locks; the ledger merges it after the run.
type layerTimes struct {
	order, ceiling, place, metrics, decision span
	placeJobs                                int64
	byPolicy                                 map[string]*span
}

func newLayerTimes() *layerTimes {
	return &layerTimes{byPolicy: make(map[string]*span)}
}

// children sums every wrapped call: what sim self time excludes.
func (lt *layerTimes) children() span {
	var c span
	for _, s := range []span{lt.order, lt.ceiling, lt.place, lt.metrics, lt.decision} {
		c.merge(s)
	}
	return c
}

func (lt *layerTimes) merge(o *layerTimes) {
	lt.order.merge(o.order)
	lt.ceiling.merge(o.ceiling)
	lt.place.merge(o.place)
	lt.metrics.merge(o.metrics)
	lt.decision.merge(o.decision)
	lt.placeJobs += o.placeJobs
	for name, s := range o.byPolicy {
		lt.policy(name).merge(*s)
	}
}

// policy returns the per-policy placement span, keyed by registry name.
func (lt *layerTimes) policy(name string) *span {
	s, ok := lt.byPolicy[name]
	if !ok {
		s = &span{}
		lt.byPolicy[name] = s
	}
	return s
}

// registryName maps a placer's display name to its registry name: the
// packed placers report "tiresias(packed-sticky)" and
// "gandiva(packed-non-sticky)".
func registryName(display string) string {
	if i := strings.IndexByte(display, '('); i >= 0 && strings.HasSuffix(display, ")") {
		return display[i+1 : len(display)-1]
	}
	return display
}

// wrap returns cfg with its scheduler, placer and sinks behind timing
// decorators that record into lt. Absent sinks stay absent.
func wrap(cfg sim.Config, lt *layerTimes) sim.Config {
	cfg.Sched = wrapSched(cfg.Sched, lt)
	cfg.Placer = wrapPlacer(cfg.Placer, lt)
	if cfg.Metrics != nil {
		cfg.Metrics = wrapMetrics(cfg.Metrics, lt)
	}
	if cfg.Decisions != nil {
		cfg.Decisions = wrapDecisions(cfg.Decisions, lt)
	}
	return cfg
}

// stateFwd forwards sim.SnapshotState.
type stateFwd struct{ st sim.SnapshotState }

func (f stateFwd) MarshalSnapshotState() ([]byte, error)    { return f.st.MarshalSnapshotState() }
func (f stateFwd) UnmarshalSnapshotState(data []byte) error { return f.st.UnmarshalSnapshotState(data) }

// Scheduler wrappers. The engine's incremental ordering calls Less
// instead of Order, so both count as ordering calls.

type timedSched struct {
	s  sim.Scheduler
	lt *layerTimes
}

func (w timedSched) Name() string { return w.s.Name() }

func (w timedSched) Order(jobs []*sim.Job, now float64) []*sim.Job {
	t0 := time.Now()
	out := w.s.Order(jobs, now)
	w.lt.order.add(t0)
	return out
}

type timedLess struct {
	to sim.TotalOrderScheduler
	lt *layerTimes
}

func (w timedLess) Less(a, b *sim.Job, now float64) bool {
	t0 := time.Now()
	less := w.to.Less(a, b, now)
	w.lt.order.add(t0)
	return less
}

type timedCeilings struct {
	ps sim.PartitionStableScheduler
	lt *layerTimes
}

func (w timedCeilings) AttainedCeilings(running, waiting []*sim.Job, ceilings []float64) {
	t0 := time.Now()
	w.ps.AttainedCeilings(running, waiting, ceilings)
	w.lt.ceiling.add(t0)
}

func wrapSched(s sim.Scheduler, lt *layerTimes) sim.Scheduler {
	base := timedSched{s, lt}
	to, isTO := s.(sim.TotalOrderScheduler)
	ps, isPS := s.(sim.PartitionStableScheduler)
	st, isST := s.(sim.SnapshotState)
	less, ceil, state := timedLess{to, lt}, timedCeilings{ps, lt}, stateFwd{st}
	switch {
	case isTO && isPS && isST:
		return struct {
			timedSched
			timedLess
			timedCeilings
			stateFwd
		}{base, less, ceil, state}
	case isTO && isPS:
		return struct {
			timedSched
			timedLess
			timedCeilings
		}{base, less, ceil}
	case isTO && isST:
		return struct {
			timedSched
			timedLess
			stateFwd
		}{base, less, state}
	case isPS && isST:
		return struct {
			timedSched
			timedCeilings
			stateFwd
		}{base, ceil, state}
	case isTO:
		return struct {
			timedSched
			timedLess
		}{base, less}
	case isPS:
		return struct {
			timedSched
			timedCeilings
		}{base, ceil}
	case isST:
		return struct {
			timedSched
			stateFwd
		}{base, state}
	}
	return base
}

type timedPlacer struct {
	p      sim.Placer
	lt     *layerTimes
	policy *span
}

func (w timedPlacer) Name() string { return w.p.Name() }
func (w timedPlacer) Sticky() bool { return w.p.Sticky() }

func (w timedPlacer) PlaceRound(c *cluster.Cluster, need []*sim.Job, now float64) map[int][]cluster.GPUID {
	t0 := time.Now()
	out := w.p.PlaceRound(c, need, now)
	d := time.Since(t0)
	w.lt.place.calls++
	w.lt.place.d += d
	w.lt.placeJobs += int64(len(need))
	w.policy.calls++
	w.policy.d += d
	return out
}

func wrapPlacer(p sim.Placer, lt *layerTimes) sim.Placer {
	base := timedPlacer{p, lt, lt.policy(registryName(p.Name()))}
	if st, ok := p.(sim.SnapshotState); ok {
		return struct {
			timedPlacer
			stateFwd
		}{base, stateFwd{st}}
	}
	return base
}

// Sink wrappers. FinishRun counts as an observe call: it is the sink's
// own work, done once per run.

type payloader interface{ Payload() *metrics.Payload }

type payloadFwd struct{ p payloader }

func (f payloadFwd) Payload() *metrics.Payload { return f.p.Payload() }

type timedMetrics struct {
	m  sim.MetricsSink
	lt *layerTimes
}

func (w timedMetrics) ObserveRounds(o sim.RoundObservation) {
	t0 := time.Now()
	w.m.ObserveRounds(o)
	w.lt.metrics.add(t0)
}

func (w timedMetrics) FinishRun(res *sim.Result) {
	t0 := time.Now()
	w.m.FinishRun(res)
	w.lt.metrics.add(t0)
}

func wrapMetrics(m sim.MetricsSink, lt *layerTimes) sim.MetricsSink {
	base := timedMetrics{m, lt}
	p, isP := m.(payloader)
	st, isST := m.(sim.SnapshotState)
	switch {
	case isP && isST:
		return struct {
			timedMetrics
			payloadFwd
			stateFwd
		}{base, payloadFwd{p}, stateFwd{st}}
	case isP:
		return struct {
			timedMetrics
			payloadFwd
		}{base, payloadFwd{p}}
	case isST:
		return struct {
			timedMetrics
			stateFwd
		}{base, stateFwd{st}}
	}
	return base
}

type traceHolder interface{ Trace() *decision.Trace }

type traceFwd struct{ t traceHolder }

func (f traceFwd) Trace() *decision.Trace { return f.t.Trace() }

type timedDecisions struct {
	d  sim.DecisionSink
	lt *layerTimes
}

func (w timedDecisions) ObserveDecision(o sim.DecisionObservation) {
	t0 := time.Now()
	w.d.ObserveDecision(o)
	w.lt.decision.add(t0)
}

func (w timedDecisions) FinishRun(res *sim.Result) {
	t0 := time.Now()
	w.d.FinishRun(res)
	w.lt.decision.add(t0)
}

func wrapDecisions(d sim.DecisionSink, lt *layerTimes) sim.DecisionSink {
	base := timedDecisions{d, lt}
	t, isT := d.(traceHolder)
	st, isST := d.(sim.SnapshotState)
	switch {
	case isT && isST:
		return struct {
			timedDecisions
			traceFwd
			stateFwd
		}{base, traceFwd{t}, stateFwd{st}}
	case isT:
		return struct {
			timedDecisions
			traceFwd
		}{base, traceFwd{t}}
	case isST:
		return struct {
			timedDecisions
			stateFwd
		}{base, stateFwd{st}}
	}
	return base
}
