package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/journal"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/vprof"
)

// cell is one expanded grid cell with its keys computed once, as
// palsweep computes them before sweeping.
type cell struct {
	built          *scenario.Built
	key, prefixKey string
}

// loadCells replays palsweep's scenario set-up with each public call
// timed: LoadFile and ExpandGrid, then Build, Key and, for fork-bearing
// cells, PrefixKey.
func (l *ledger) loadCells(path string) ([]cell, error) {
	t0 := time.Now()
	spec, err := scenario.LoadFile(path)
	if err != nil {
		return nil, err
	}
	specs, err := spec.ExpandGrid()
	if err != nil {
		return nil, err
	}
	l.loadExpand += time.Since(t0)
	cells := make([]cell, len(specs))
	for i, s := range specs {
		t0 = time.Now()
		b, err := s.Build()
		if err != nil {
			return nil, err
		}
		l.build += time.Since(t0)
		t0 = time.Now()
		cells[i] = cell{built: b, key: b.Key()}
		l.key += time.Since(t0)
		if b.Forked() {
			t0 = time.Now()
			cells[i].prefixKey = b.PrefixKey()
			l.prefixKey += time.Since(t0)
		}
	}
	l.cells += len(cells)
	return cells, nil
}

// setupScenario is the set-up palsweep does before its first
// simulation: load, expand, Build and key every cell, then the first
// Built.Config per distinct profile, which pays the K-Means binning.
func setupScenario(path string) error {
	cells, err := (&ledger{}).loadCells(path)
	if err != nil {
		return err
	}
	seen := make(map[*vprof.Profile]bool)
	for _, c := range cells {
		if p := c.built.Profile; !seen[p] {
			seen[p] = true
			if _, err := c.built.Config(); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepOpts mirrors the palsweep flags one replayed process ran with.
type sweepOpts struct {
	specPath      string // the -scenario argument, echoed in labels and notes
	shard, shards int    // -shard shard/shards; shards 0 means unsharded
	store         string
	journal       string // "" means no -journal
	snapshots     bool
	out           string // -out directory of the CSV table
}

// sweep replays one palsweep -scenario process over cells: a worker
// pool whose result and snapshot caches sit on the timed store, a probe
// in front of the journal, every cell's engine calls traced, and the
// summary table written as palsweep writes it.
func (l *ledger) sweep(cells []cell, o sweepOpts) ([]*sim.Result, error) {
	st, err := store.Open(o.store)
	if err != nil {
		return nil, err
	}
	backend := timedStore{st, l}
	cache := runner.NewResultCache(0)
	cache.SetBackend(backend)
	pool := runner.NewPool(l.workers, cache)
	probe := timedProbe{l: l}
	if o.journal != "" {
		shard := ""
		if o.shards > 0 {
			shard = fmt.Sprintf("%d/%d", o.shard, o.shards)
		}
		probe.jw, err = journal.Create(o.journal, journal.Header{Role: "perfbench", Shard: shard, Workers: pool.Workers()})
		if err != nil {
			return nil, err
		}
	}
	pool.SetProbe(probe)
	var snaps *runner.SnapshotCache
	if o.snapshots {
		snaps = runner.NewSnapshotCache(backend)
	}

	var kept []cell
	sweep := runner.NewSweep(pool)
	for _, c := range cells {
		if o.shards > 0 && runner.ShardOf(c.key, o.shards) != o.shard {
			continue
		}
		kept = append(kept, c)
		ctrs := &sim.Counters{}
		var forked bool
		sweep.AddTask(runner.Task{
			Key:   c.key,
			Label: fmt.Sprintf("scenario %s (%s)", c.built.Spec.Name, o.specPath),
			Run: func() (*sim.Result, error) {
				res, f, err := l.runCell(c, snaps, ctrs)
				forked = f
				l.mu.Lock()
				l.counters.Add(ctrs)
				l.mu.Unlock()
				return res, err
			},
			Forked:   func() bool { return forked },
			Counters: func() *sim.Counters { return ctrs },
		})
	}
	t0 := time.Now()
	results, err := sweep.Run(context.Background())
	l.addPool(pool, snaps, time.Since(t0))
	if probe.jw != nil {
		cs := cache.Stats()
		if cerr := probe.jw.Close(journal.Summary{Runner: pool.Stats(), Cache: &cs}); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	return results, writeTable(o.out, scenarioTable(kept, results, o.specPath))
}

// runCell is palsweep's per-cell task body with every engine call
// traced: Built.Run for a plain cell; for a fork-bearing one, the
// share-the-prefix-or-simulate-your-own logic of palsweep's forkRun.
// forked reports that the result resumed a shared capture.
func (l *ledger) runCell(c cell, snaps *runner.SnapshotCache, ctrs *sim.Counters) (res *sim.Result, forked bool, err error) {
	b := c.built
	if !b.Forked() {
		cfg, err := b.Config()
		if err != nil {
			return nil, false, err
		}
		err = l.simulate(&l.runs, cfg, ctrs, func(cfg sim.Config) (err error) {
			res, err = sim.Run(cfg)
			return err
		})
		return res, false, err
	}
	if snaps == nil {
		res, err = l.ownPrefix(b, ctrs)
		return res, false, err
	}
	snap, fromCache, err := snaps.GetOrCapture(c.prefixKey, func() (*sim.Snapshot, error) {
		s, _, err := l.capture(b, ctrs)
		if err != nil {
			return nil, err
		}
		if s == nil {
			return &sim.Snapshot{Completed: true}, nil
		}
		return s, nil
	})
	if err != nil || snap == nil || snap.Completed {
		res, err = l.ownPrefix(b, ctrs)
		return res, false, err
	}
	res, err = l.resume(b, snap, ctrs)
	if err != nil && fromCache {
		res, err = l.ownPrefix(b, ctrs)
		return res, false, err
	}
	return res, err == nil && fromCache, err
}

// ownPrefix is Built.RunForked(nil) with both halves traced.
func (l *ledger) ownPrefix(b *scenario.Built, ctrs *sim.Counters) (*sim.Result, error) {
	snap, early, err := l.capture(b, ctrs)
	if err != nil || snap == nil {
		return early, err
	}
	return l.resume(b, snap, ctrs)
}

// capture is Built.CaptureSnapshot, traced.
func (l *ledger) capture(b *scenario.Built, ctrs *sim.Counters) (snap *sim.Snapshot, res *sim.Result, err error) {
	cfg, err := b.WarmupConfig()
	if err != nil {
		return nil, nil, err
	}
	err = l.simulate(&l.captures, cfg, ctrs, func(cfg sim.Config) (err error) {
		snap, res, err = sim.Capture(cfg, b.Spec.Fork.Rounds)
		return err
	})
	return snap, res, err
}

// resume is Built.ResumeFrom, traced.
func (l *ledger) resume(b *scenario.Built, snap *sim.Snapshot, ctrs *sim.Counters) (res *sim.Result, err error) {
	cfg, err := b.Config()
	if err != nil {
		return nil, err
	}
	err = l.simulate(&l.resumes, cfg, ctrs, func(cfg sim.Config) (err error) {
		res, err = sim.Resume(cfg, snap)
		return err
	})
	return res, err
}

// simulate runs one engine entry point on a wrapped copy of cfg, timing
// the call and folding the run's layer times into the ledger.
func (l *ledger) simulate(entry *span, cfg sim.Config, ctrs *sim.Counters, call func(sim.Config) error) error {
	lt := newLayerTimes()
	cfg = wrap(cfg, lt)
	cfg.Counters = ctrs
	t0 := time.Now()
	err := call(cfg)
	d := time.Since(t0)
	l.mu.Lock()
	entry.calls++
	entry.d += d
	l.layers.merge(lt)
	l.mu.Unlock()
	return err
}

// scenarioTable renders the one-row-per-cell table exactly as palsweep
// does, so the replay's table digests must equal the CLI's.
func scenarioTable(cells []cell, results []*sim.Result, specPath string) *experiments.Table {
	t := &experiments.Table{
		Name:  "scenarios",
		Title: "declarative scenario sweep",
		Header: []string{"scenario", "workload", "jobs", "gpus", "policy", "sched",
			"avg_jct_s", "p50_jct_s", "p99_jct_s", "mean_wait_s", "makespan_h", "util_pct", "rounds", "truncated"},
	}
	for i, c := range cells {
		b, res := c.built, results[i]
		jcts := res.JCTs()
		truncated := ""
		if res.Truncated {
			truncated = fmt.Sprintf("yes (%d unfinished)", res.Unfinished)
		}
		t.AddRowf(b.Spec.Name, b.Trace.Name, len(b.Trace.Jobs), b.Topo.Size(),
			b.Spec.Policy.Name, b.Spec.Sched.Name,
			stats.Mean(jcts), stats.Percentile(jcts, 50), stats.Percentile(jcts, 99),
			stats.Mean(res.Waits()), res.Makespan/3600, 100*res.Utilization, res.Rounds, truncated)
		t.Note("%s: key %s (%s)", b.Spec.Name, c.key[:16], specPath)
	}
	return t
}

// writeTable writes t as dir/<name>.csv, as palsweep -format csv -out does.
func writeTable(dir string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.Name+".csv"))
	if err != nil {
		return err
	}
	if err := export.TableCSV(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceGridStore replays grid-store: two cold shard processes with
// journals into a fresh store, then the unsharded warm re-sweep.
func (l *ledger) traceGridStore(spec string) error {
	cells, err := l.loadCells(spec)
	if err != nil {
		return err
	}
	for shard := 0; shard < 2; shard++ {
		res, err := l.sweep(cells, sweepOpts{specPath: spec, shard: shard, shards: 2,
			store: "traced/store", journal: "traced/journal", out: fmt.Sprintf("traced/cold%d", shard)})
		if err != nil {
			return err
		}
		l.computed = append(l.computed, res...)
	}
	_, err = l.sweep(cells, sweepOpts{specPath: spec, store: "traced/store", out: "traced/warm"})
	return err
}

// traceForkGrid replays fork-grid: the forked sweep into a fresh store
// with snapshot sharing on, then the warm re-sweep.
func (l *ledger) traceForkGrid(spec string) error {
	cells, err := l.loadCells(spec)
	if err != nil {
		return err
	}
	l.computed, err = l.sweep(cells, sweepOpts{specPath: spec, store: "traced/store", snapshots: true, out: "traced/shared"})
	if err != nil {
		return err
	}
	_, err = l.sweep(cells, sweepOpts{specPath: spec, store: "traced/store", snapshots: true, out: "traced/warm"})
	return err
}

// unsharedRounds sums the engine rounds the journals in dir recorded:
// for fork-grid, those of the -snapshots=false sweep.
func unsharedRounds(dir string) (int64, error) {
	procs, err := journal.LoadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range procs {
		if c, ok := p.EngineCounters(); ok {
			total += c.TotalRounds()
		}
	}
	return total, nil
}
