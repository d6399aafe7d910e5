// Package cli is the front end the command-line tools share. A Session
// wires one process's runner pool, in-memory result cache, persistent
// store tier (probed for latency when journaling), execution journal
// and pprof profiles, and prints the closing summary lines, so palsim's
// single run and palsweep's sweeps reach the cache, the store and the
// journal through the same code. ReadArchives resolves the -in argument
// palreport and palexplain take — archive files, directories, globs and
// result-store roots — in one pass.
package cli

import (
	"fmt"
	"os"
	"time"

	"repro/internal/journal"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
)

// Options configures a Session; the fields mirror the CLI flags of the
// same names.
type Options struct {
	// Prog prefixes every stderr line and names the journal role.
	Prog string
	// Workers bounds concurrent simulations (0 = GOMAXPROCS; Open
	// rejects a negative count).
	Workers int
	// StoreDir, when set, backs the cache with the persistent store.
	StoreDir string
	// JournalDir, when set, appends an execution journal there; Shard
	// is recorded in its header.
	JournalDir, Shard string
	// CPUProfile and MemProfile name pprof outputs written by Finish.
	CPUProfile, MemProfile string
	// Quiet suppresses Finish's journal-path line.
	Quiet bool
	// CoreReads serves store hits through the core decoder
	// (store.CoreReads): results come back without metrics payloads or
	// decision traces. Only a caller that never reads either may set
	// it; no flag exposes it.
	CoreReads bool
}

// Session is one CLI process's execution stack. Pool runs tasks through
// the session's cache, which consults the store before simulating and
// writes fresh results through to it.
type Session struct {
	Pool *runner.Pool

	opts         Options
	cache        *runner.ResultCache
	store        *store.Store
	probe        *journal.BackendProbe
	jw           *journal.Writer
	stopProfiles func() error
}

// Open starts the profiles, opens the store and the journal, and builds
// the pool. On error nothing needs closing beyond what the caller's exit
// tears down.
func Open(o Options) (*Session, error) {
	// Zero means GOMAXPROCS; a negative count is a typo that would
	// otherwise run silently at the default.
	if o.Workers < 0 {
		return nil, fmt.Errorf("-workers %d: want a positive count, or 0 for GOMAXPROCS", o.Workers)
	}
	stop, err := journal.StartProfiles(o.CPUProfile, o.MemProfile)
	if err != nil {
		return nil, err
	}
	s := &Session{opts: o, cache: runner.NewResultCache(runner.DefaultCacheCapacity), stopProfiles: stop}
	if o.StoreDir != "" {
		if s.store, err = store.Open(o.StoreDir); err != nil {
			return nil, err
		}
		var backend runner.Backend = s.store
		if o.CoreReads {
			backend = store.CoreReads{Store: s.store}
		}
		if o.JournalDir != "" {
			// The probe wraps the store so the journal's summary carries
			// per-op latency/size histograms; the cache (and its circuit
			// breaker) sees the probe as just another backend.
			s.probe = journal.ProbeBackend(backend)
			backend = s.probe
		}
		s.cache.SetBackend(backend)
	}
	s.Pool = runner.NewPool(o.Workers, s.cache)
	if o.JournalDir != "" {
		s.jw, err = journal.Create(o.JournalDir, journal.Header{
			Role: o.Prog, Shard: o.Shard, Workers: s.Pool.Workers(),
		})
		if err != nil {
			return nil, err
		}
		s.Pool.SetProbe(s.jw)
	}
	return s, nil
}

// SnapshotCache returns a snapshot cache that persists captures in the
// session's store, or keeps them in memory without one.
func (s *Session) SnapshotCache() *runner.SnapshotCache {
	if s.store == nil {
		return runner.NewSnapshotCache(nil)
	}
	return runner.NewSnapshotCache(s.store)
}

// Finish runs on every clean exit path (fatal paths leave a
// summary-less journal, which the reader reports as incomplete): the
// store-degradation warning, the journal summary record, and the
// profile flush.
func (s *Session) Finish() {
	s.storeWarning()
	if s.jw != nil {
		cs := s.cache.Stats()
		sum := journal.Summary{
			Runner:        s.Pool.Stats(),
			Cache:         &cs,
			StoreDetached: s.cache.BackendDetached(),
		}
		if s.probe != nil {
			sum.StoreGet, sum.StorePut = s.probe.Stats()
		}
		if err := s.jw.Close(sum); err != nil {
			fmt.Fprintf(os.Stderr, "%s: WARNING: journal degraded: %v\n", s.opts.Prog, err)
		} else if !s.opts.Quiet {
			fmt.Fprintf(os.Stderr, "%s: journal %s\n", s.opts.Prog, s.jw.Path())
		}
	}
	if err := s.stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", s.opts.Prog, err)
	}
}

// Summarize prints the closing stderr lines of n completed runs: the
// sweep summary and, when any engine stepped in this process, the
// merged engine counters. Runs served from a cache tier contribute
// zeros, so the engine line describes this process's own simulation
// work.
func (s *Session) Summarize(n int, noun string, took time.Duration, engine []*sim.Counters) {
	fmt.Fprintln(os.Stderr, s.sweepSummary(n, noun, took))
	total := &sim.Counters{}
	for _, c := range engine {
		total.Add(c)
	}
	if total.TotalRounds() > 0 {
		fmt.Fprintf(os.Stderr, "%s: %s\n", s.opts.Prog, total.Summary())
	}
}

// storeWarning surfaces persistent-store degradation explicitly at the
// end of a run: backend failures the cache degraded around, and whether
// the circuit breaker detached the store entirely (results computed
// after that point were not persisted). Printed even under -quiet —
// silently losing persistence is worse than a noisy line.
func (s *Session) storeWarning() {
	cs := s.cache.Stats()
	detached := s.cache.BackendDetached()
	if cs.StoreErrors == 0 && !detached {
		return
	}
	msg := fmt.Sprintf("%s: WARNING: persistent store degraded: %d backend errors", s.opts.Prog, cs.StoreErrors)
	if detached {
		msg += "; store detached after repeated failures, later results were not persisted"
	}
	fmt.Fprintln(os.Stderr, msg)
}

// sweepSummary is a run's closing stderr line. The elapsed time has
// millisecond resolution: a warm sweep served from the store takes tens
// of milliseconds, which a one-decimal format rounded to "0.0s".
func (s *Session) sweepSummary(n int, noun string, took time.Duration) string {
	return fmt.Sprintf("%s: %d %s, %s, %d workers, %.3fs total",
		s.opts.Prog, n, noun, cacheSummary(s.Pool, s.cache), s.Pool.Workers(), took.Seconds())
}

// cacheSummary renders the cache effectiveness: simulations actually
// executed versus results served from each cache tier, and how many
// were persisted to the store. A warm start over an unchanged grid
// reads "0 simulated" — the signal CI's store smoke tests check for.
// Snapshot forks — cells resumed from a shared warmup capture instead of
// simulated from scratch — are broken out separately, so "simulated"
// always counts full from-scratch runs.
func cacheSummary(pool *runner.Pool, cache *runner.ResultCache) string {
	st := pool.Stats()
	s := fmt.Sprintf("%d simulated", st.Executed-st.SnapshotForks)
	if st.SnapshotForks > 0 {
		s += fmt.Sprintf(", %d snapshot forks", st.SnapshotForks)
	}
	cs := cache.Stats()
	s += fmt.Sprintf(", %d cache hits (%d memory, %d store)", cs.Hits+cs.StoreHits, cs.Hits, cs.StoreHits)
	if cs.Stored > 0 {
		s += fmt.Sprintf(", %d stored", cs.Stored)
	}
	if cs.StoreErrors > 0 {
		s += fmt.Sprintf(", %d store errors", cs.StoreErrors)
	}
	return s
}
