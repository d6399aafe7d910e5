// Command palsweep runs any subset of the registered experiments
// concurrently through the runner pool, with progress/ETA reporting and
// JSON/CSV/Markdown export.
//
// palsweep fans every requested experiment's simulation grid out across
// a shared worker pool: independent simulations from different
// experiments interleave freely, the content-addressed result cache
// deduplicates overlapping configurations (e.g. the Sia baseline
// feeding fig11, fig12 and headline), and each experiment's table is
// still assembled from results in deterministic submission order, so
// the output is byte-identical to a sequential run — with one
// exception: fig18 reports wall-clock placement timings, which vary run
// to run by nature.
//
// Usage:
//
//	palsweep -list
//	palsweep -experiments fig11,fig14 -workers 8 -scale quick
//	palsweep -experiments all -scale full -format csv -out results/
//	palsweep -experiments sia -workers 1   # fig11,fig12,fig13,headline
//	palsweep -scenario a.json,b.json,c.json -workers 8
//	palsweep -scenario specs/ -workers 8              # every *.json in the directory
//	palsweep -scenario 'specs/pal-*.json' -metrics out/
//	palsweep -scenario specs/ -store results/.palstore   # warm-start later sweeps
//	palsweep -scenario grid.json -shard 0/2 -store shared/.palstore   # one of two shard processes
//	palsweep -scenario grid.json -journal out/journal    # append this process's execution journal
//	palsweep -scenario specs/ -cpuprofile cpu.pprof -memprofile mem.pprof
//
// With -scenario, each named declarative spec (internal/scenario
// documents the format) becomes one simulation fanned out over the same
// worker pool, cached under its canonical content hash — so re-sweeping
// an unchanged spec, or naming the same scenario twice, simulates once
// — and summarized as one row of a single "scenarios" table. A spec
// carrying a grid block expands into one cell per cross-product
// combination first, in the deterministic order internal/scenario
// documents. Scenario arguments may be files, directories (every *.json
// inside) or globs; an argument matching nothing is an error naming
// what failed. Adding -metrics out/ force-enables each spec's telemetry
// block and archives the collected payloads there, ready for
// cmd/palreport to aggregate.
//
// With -shard i/n, this process runs only the expanded cells whose
// content hash lands in shard i of n (runner.ShardOf over the cell's
// cache key — a pure function of cell content, never of enumeration
// order, so the n processes of one grid agree on the partition without
// coordination). Shards meet in the shared -store: once every shard has
// run, any process — sharded or not — sweeps the full grid with
// "0 simulated", and palreport -grid tabulates whatever cells are
// present, counting the missing ones.
//
// Cells carrying a fork block (scenario `fork`) share their warmup
// prefixes through a snapshot cache: each distinct prefix — warmup
// policies, horizon and arrived workload prefix — simulates once, and
// every other cell of the group forks from the captured engine state
// at the divergence point. The summary line breaks these out as
// "snapshot forks" so "simulated" stays the count of full from-scratch
// runs; -snapshots=false disables sharing (each cell simulates its own
// prefix — byte-identical results either way). With -store, captured
// snapshots persist beside results, so shard processes and later
// sweeps fork straight from disk.
//
// With -store, the in-memory result cache is backed by the persistent
// content-addressed store (internal/store): results computed by any
// previous palsweep/palsim invocation — or a concurrent one — are
// loaded from disk instead of re-simulated, and fresh results are
// persisted for the next run. The summary line breaks cache hits down
// by tier; a repeat sweep over an unchanged grid reports 0 simulated.
// Inspect or prune the store with cmd/palstore.
//
// With -journal, the process appends an execution journal (one JSONL
// event stream, internal/journal) into the named directory: a task
// record per completed simulation — which cache tier satisfied it,
// which worker slot carried it, how long it took — and a final summary
// carrying the pool/cache counters and store latency histograms.
// Journals are observation-only wall-clock data, strictly outside
// results and cache keys: a journaled sweep's tables are byte-identical
// to an unjournaled run's. Each shard process of a sharded sweep writes
// its own journal into the shared directory; cmd/palreport -journal
// merges them into cross-shard tables. -cpuprofile/-memprofile write Go
// pprof profiles on clean exit.
//
// Ctrl-C cancels the sweep: in-flight simulations finish, queued ones
// never start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// groups name convenient experiment subsets.
var groups = map[string][]string{
	"sia":      {"fig11", "fig12", "fig13", "headline"},
	"synergy":  {"fig14", "fig15", "fig16_17", "fig19", "fig20"},
	"testbed":  {"fig09", "fig10", "table04"},
	"ablation": {"ablation_hysteresis", "ablation_k", "ablation_online", "ablation_priority", "ablation_rack"},
}

func main() {
	var (
		expFlag    = flag.String("experiments", "all", "comma-separated experiment IDs, group names (sia, synergy, testbed, ablation) or \"all\"")
		scenFlag   = flag.String("scenario", "", "comma-separated scenario spec files, directories or globs to sweep instead of registered experiments")
		workers    = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		scale      = flag.String("scale", "full", "experiment scale: full or quick")
		format     = flag.String("format", "text", "output format: text, csv, md, json")
		outDir     = flag.String("out", "", "write one file per experiment into this directory instead of stdout")
		list       = flag.Bool("list", false, "list available experiments and groups, then exit")
		quiet      = flag.Bool("quiet", false, "suppress the progress line")
		metricsDir = flag.String("metrics", "", "with -scenario: collect telemetry and archive each scenario's payload (JSON) and series (CSV) into this directory for palreport")
		decisions  = flag.Bool("decisions", false, "with -scenario: record each scenario's decision trace; with -metrics, traces are archived next to the payloads for palexplain")
		storeDir   = flag.String("store", "", "persistent result-store directory: a disk cache tier shared across processes, so repeat sweeps execute 0 simulations")
		snapshots  = flag.Bool("snapshots", true, "with -scenario: share fork-bearing cells' warmup prefixes through the snapshot cache (each prefix simulates once and every cell forks from it); disable to simulate every cell's own prefix")
		shardFlag  = flag.String("shard", "", "with -scenario and -store: run only shard i/n of the expanded cells (e.g. 0/4); the n processes partition the grid by content hash and meet in the shared store")
		journalDir = flag.String("journal", "", "append this process's execution journal (task spans, cache-tier outcomes, store latency) into this directory for palreport -journal")
		cpuProfile = flag.String("cpuprofile", "", "write a Go CPU profile to this file (flushed on clean exit)")
		memProfile = flag.String("memprofile", "", "write a Go heap profile to this file on clean exit")
	)
	flag.Parse()

	if *list {
		for _, name := range experiments.Names() {
			fmt.Printf("%-20s %s\n", name, experiments.Describe(name))
		}
		groupNames := make([]string, 0, len(groups))
		for g := range groups {
			groupNames = append(groupNames, g)
		}
		sort.Strings(groupNames)
		fmt.Println()
		for _, g := range groupNames {
			fmt.Printf("%-20s group: %s\n", g, strings.Join(groups[g], ","))
		}
		return
	}

	if *scenFlag != "" {
		// The specs own the whole configuration; an experiment selection
		// or scale alongside them would be silently ignored, so reject
		// the combination (same policy as palsim's -scenario).
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "experiments" || f.Name == "scale" {
				fatal(fmt.Errorf("-%s conflicts with -scenario (the specs set the configuration)", f.Name))
			}
		})
	} else if *metricsDir != "" {
		fatal(fmt.Errorf("-metrics requires -scenario"))
	} else if *decisions {
		fatal(fmt.Errorf("-decisions requires -scenario"))
	}
	shard, err := parseShard(*shardFlag)
	if err != nil {
		fatal(err)
	}
	if shard.enabled() {
		if *scenFlag == "" {
			fatal(fmt.Errorf("-shard requires -scenario (shards split an expanded scenario grid)"))
		}
		if *storeDir == "" {
			fatal(fmt.Errorf("-shard requires -store (shard processes meet in the shared result store)"))
		}
	}

	var names []string
	var sc experiments.Scale
	if *scenFlag == "" {
		var err error
		names, err = resolveExperiments(*expFlag)
		if err != nil {
			fatal(err)
		}
		switch *scale {
		case "full":
			sc = experiments.FullScale()
		case "quick":
			sc = experiments.QuickScale()
		default:
			fatal(fmt.Errorf("unknown scale %q (want full or quick)", *scale))
		}
	}
	if err := export.CheckFormat(*format); err != nil {
		fatal(err)
	}
	if *format == "csv" && *outDir == "" && len(names) > 1 {
		// CSV tables written back to back to stdout carry nothing a
		// reader could split them on.
		fatal(fmt.Errorf("-format csv with %d experiments needs -out (one file per experiment)", len(names)))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// After the first Ctrl-C cancels the sweep, deregister the
		// handler so a second Ctrl-C force-kills the process instead of
		// being swallowed while in-flight simulations drain.
		<-ctx.Done()
		stop()
	}()
	sc.Ctx = ctx

	sess, err := cli.Open(cli.Options{
		Prog: "palsweep", Workers: *workers,
		StoreDir: *storeDir, JournalDir: *journalDir, Shard: *shardFlag,
		CPUProfile: *cpuProfile, MemProfile: *memProfile, Quiet: *quiet,
		// A scenario sweep that archives no payloads reads nothing of a
		// stored result but its core (scenarioTable); the figure sweeps
		// read the metrics payload (Fig. 15's GPUs-in-use series).
		CoreReads: *scenFlag != "" && *metricsDir == "",
	})
	if err != nil {
		fatal(err)
	}
	experiments.SetPool(sess.Pool)

	start := time.Now()
	if *scenFlag != "" {
		paths, err := expandScenarioArgs(*scenFlag)
		if err != nil {
			fatal(err)
		}
		var snapCache *runner.SnapshotCache
		if *snapshots {
			// The snapshot cache shares fork-bearing cells' warmup
			// prefixes; with -store, captures persist beside results so
			// shard processes (and later sweeps) fork from disk.
			snapCache = sess.SnapshotCache()
		}
		runScenarioSweep(ctx, sess, snapCache, paths, *format, *outDir, *metricsDir, *decisions, *quiet, shard, start)
		sess.Finish()
		return
	}
	progressDone := make(chan struct{})
	progressExited := make(chan struct{})
	var completedExps sync.Map // name -> struct{}
	if !*quiet {
		go func() {
			defer close(progressExited)
			progressLoop(sess.Pool, names, &completedExps, start, progressDone)
		}()
	}

	type outcome struct {
		table *experiments.Table
		err   error
		took  time.Duration
	}
	outcomes := make([]outcome, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		i, name := i, name
		wg.Add(1)
		go func() {
			defer wg.Done()
			expStart := time.Now()
			table, err := experiments.RunByName(name, sc)
			outcomes[i] = outcome{table: table, err: err, took: time.Since(expStart)}
			completedExps.Store(name, struct{}{})
		}()
	}
	wg.Wait()
	if !*quiet {
		close(progressDone)
		// Wait for the loop to exit before clearing, so a pending ticker
		// fire cannot repaint over the final error/summary lines. The
		// ANSI erase-line wipes the whole row regardless of its length.
		<-progressExited
		fmt.Fprint(os.Stderr, "\r\x1b[K")
	}

	failures := 0
	for i, name := range names {
		o := outcomes[i]
		if o.err != nil {
			// Only errors that actually are the cancellation get the
			// short form; a genuine pre-Ctrl-C failure keeps its message.
			if errors.Is(o.err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "palsweep: %s: cancelled\n", name)
			} else {
				fmt.Fprintf(os.Stderr, "palsweep: %s: %v\n", name, o.err)
			}
			failures++
			continue
		}
		if err := export.WriteTable(o.table, *format, *outDir); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if *format == "text" && *outDir == "" {
			fmt.Printf("(%s in %.1fs)\n\n", name, o.took.Seconds())
		}
	}
	if !*quiet {
		sess.Summarize(len(names)-failures, "experiments", time.Since(start), nil)
	}
	sess.Finish()
	if failures > 0 {
		os.Exit(1)
	}
}

// expandScenarioArgs expands the -scenario flag's comma-separated tokens
// into spec file paths: files, directories (every *.json inside, sorted)
// or globs, with every unmatched token named in the error so a typo'd
// directory cannot silently shrink a sweep.
func expandScenarioArgs(s string) ([]string, error) {
	paths, err := export.ExpandFileArgs(s, ".json")
	if err != nil {
		return nil, fmt.Errorf("-scenario: %w", err)
	}
	return paths, nil
}

// scenarioCell is one expanded grid cell queued for the sweep: the
// built scenario plus the spec file it came from.
type scenarioCell struct {
	built *scenario.Built
	path  string
}

// shardSpec is a parsed -shard value. count 0 means unsharded.
type shardSpec struct{ index, count int }

func (sh shardSpec) enabled() bool { return sh.count > 0 }

// parseShard parses an "i/n" shard selector. Every error states the
// offending value and the expected range.
func parseShard(s string) (shardSpec, error) {
	if s == "" {
		return shardSpec{}, nil
	}
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return shardSpec{}, fmt.Errorf("-shard %q, want the form i/n (e.g. 0/4)", s)
	}
	i, err := strconv.Atoi(is)
	if err != nil {
		return shardSpec{}, fmt.Errorf("-shard %q: index %q, want an integer", s, is)
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return shardSpec{}, fmt.Errorf("-shard %q: count %q, want an integer", s, ns)
	}
	if n <= 0 {
		return shardSpec{}, fmt.Errorf("-shard %q: count %d, want >= 1", s, n)
	}
	if i < 0 || i >= n {
		return shardSpec{}, fmt.Errorf("-shard %q: index %d, want 0 <= index < %d", s, i, n)
	}
	return shardSpec{index: i, count: n}, nil
}

// loadScenarioCells loads every spec file, force-enables the recording
// blocks the flags ask for, expands grid specs into their cells, and
// builds each cell. The forced enables happen before expansion, so grid
// cells normalize the enabled blocks — and cache-key — exactly like
// single-cell specs that asked for recording themselves.
func loadScenarioCells(paths []string, forceMetrics, forceDecisions bool) ([]scenarioCell, error) {
	var cells []scenarioCell
	for _, path := range paths {
		spec, err := scenario.LoadFile(path)
		if err != nil {
			return nil, err
		}
		if forceMetrics {
			spec.Metrics.Enabled = true
		}
		if forceDecisions {
			spec.Decisions.Enabled = true
		}
		if forceMetrics || forceDecisions {
			spec.Normalize()
		}
		expanded, err := spec.ExpandGrid()
		if err != nil {
			return nil, err
		}
		for _, cell := range expanded {
			built, err := cell.Build()
			if err != nil {
				return nil, err
			}
			cells = append(cells, scenarioCell{built: built, path: path})
		}
	}
	return cells, nil
}

// filterShard keeps the cells whose content hash lands in this shard.
// Assignment is runner.ShardOf over the cell's cache key — a pure
// function of cell content, never of enumeration order — so the n shard
// processes of one grid agree on the partition without coordination and
// re-running any shard selects the same cells.
func filterShard(cells []scenarioCell, sh shardSpec) []scenarioCell {
	if !sh.enabled() {
		return cells
	}
	kept := make([]scenarioCell, 0, len(cells))
	for _, c := range cells {
		if runner.ShardOf(c.built.Key(), sh.count) == sh.index {
			kept = append(kept, c)
		}
	}
	return kept
}

// scenarioTable assembles the one-row-per-cell summary table in cell
// order and, with metricsDir set, archives each cell's telemetry
// payload (and decision trace, when recorded) there for palreport and
// palexplain. Returns the table and the number of archived payloads.
func scenarioTable(cells []scenarioCell, results []*sim.Result, metricsDir string) (*experiments.Table, int, error) {
	table := &experiments.Table{
		Name:  "scenarios",
		Title: "declarative scenario sweep",
		Header: []string{"scenario", "workload", "jobs", "gpus", "policy", "sched",
			"avg_jct_s", "p50_jct_s", "p99_jct_s", "mean_wait_s", "makespan_h", "util_pct", "rounds", "truncated"},
	}
	var names export.UniqueNames
	archived := 0
	for i, c := range cells {
		b := c.built
		res := results[i]
		if metricsDir != "" {
			// Scenario names may repeat across specs, so collide into
			// key-suffixed file names instead of overwriting.
			if _, err := export.ArchiveRun(metricsDir, names.Name(b.Spec.Name, b.Key()), b.Key(), res); err != nil {
				return nil, 0, fmt.Errorf("scenario %s: %w", b.Spec.Name, err)
			}
			archived++
		}
		a := metrics.Summarize(res)
		truncated := ""
		if res.Truncated {
			truncated = fmt.Sprintf("yes (%d unfinished)", res.Unfinished)
		}
		var avg, p50, p99, wait, makespan any = "-", "-", "-", "-", "-"
		if a.HasJCT() {
			avg, p50, p99, wait = a.AvgJCT, a.P50JCT, a.P99JCT, a.MeanWait
		}
		if a.HasMakespan(res.Unfinished) {
			makespan = a.Makespan / 3600
		}
		table.AddRowf(b.Spec.Name, b.Trace.Name, len(b.Trace.Jobs), b.Topo.Size(),
			b.Spec.Policy.Name, b.Spec.Sched.Name,
			avg, p50, p99, wait, makespan, 100*a.Utilization, a.Rounds, truncated)
		table.Note("%s: key %s (%s)", b.Spec.Name, b.Key()[:16], c.path)
	}
	return table, archived, nil
}

// forkRun builds the Run and Forked hooks for one fork-bearing cell:
// the cell's prefix snapshot is fetched through the shared snapshot
// cache — captured at most once per prefix group, across every cell
// (and, with a store backend, every process) sharing the warmup — and
// the cell resumes from it under its own policies. Forked reports
// whether the result genuinely rode a shared capture, which the pool
// surfaces as the snapshot-fork outcome. Every degraded path falls
// back to the cell simulating its own prefix (RunForked()), so
// snapshot sharing can only ever save work, never fail a cell that
// would have succeeded on its own.
func forkRun(snapCache *runner.SnapshotCache, b *scenario.Built) (run func() (*sim.Result, error), forked func() bool) {
	var rode atomic.Bool
	run = func() (*sim.Result, error) {
		snap, fromCache, err := snapCache.GetOrCapture(b.PrefixKey(), func() (*sim.Snapshot, error) {
			s, _, cerr := b.CaptureSnapshot()
			if cerr != nil {
				return nil, cerr
			}
			if s == nil {
				// The warmup completed before the horizon: cache the
				// sentinel so the whole prefix group learns there is no
				// state to fork from without re-probing.
				return &sim.Snapshot{Completed: true}, nil
			}
			return s, nil
		})
		if err != nil || snap == nil || snap.Completed {
			// Capture failure or early completion: the cell runs on its
			// own (a deterministic capture error resurfaces per cell).
			return b.RunForked()
		}
		res, rerr := b.ResumeFrom(snap)
		if rerr != nil && fromCache {
			// A shared (possibly store-loaded) snapshot that fails to
			// resume must not fail the cell — simulate its own prefix.
			return b.RunForked()
		}
		if rerr == nil {
			rode.Store(fromCache)
		}
		return res, rerr
	}
	return run, rode.Load
}

// runScenarioSweep fans declarative scenario specs — grid specs
// expanded into their cells first — out over the worker pool, each
// keyed by its canonical content hash so duplicate or previously-run
// configurations hit the result cache, and renders one summary table
// with a row per cell. With metricsDir set, every spec's telemetry
// block is force-enabled and the collected payloads are archived there
// for palreport. With a shard selector, only this shard's slice of the
// expanded cells runs. snapCache, when non-nil, routes fork-bearing
// cells through the shared snapshot cache (-snapshots).
func runScenarioSweep(ctx context.Context, sess *cli.Session, snapCache *runner.SnapshotCache, paths []string, format, outDir, metricsDir string, decisions, quiet bool, shard shardSpec, start time.Time) {
	cells, err := loadScenarioCells(paths, metricsDir != "", decisions)
	if err != nil {
		fatal(err)
	}
	if len(cells) == 0 {
		fatal(fmt.Errorf("no scenario specs given"))
	}
	total := len(cells)
	cells = filterShard(cells, shard)
	sweep := runner.NewSweep(sess.Pool)
	engineCtrs := make([]*sim.Counters, len(cells))
	for i, c := range cells {
		run := c.built // capture per iteration for the task closure
		// Each cell gets its own engine-counter instance (a Built drives
		// one task here, so the no-concurrent-runs contract holds); the
		// runner hands them to the journal probe for executed cells, and
		// the sweep summary below merges them.
		ctrs := &sim.Counters{}
		run.Counters = ctrs
		engineCtrs[i] = ctrs
		t := runner.Task{
			Key:      run.Key(),
			Label:    fmt.Sprintf("scenario %s (%s)", run.Spec.Name, c.path),
			Run:      func() (*sim.Result, error) { return run.Run() },
			Counters: func() *sim.Counters { return ctrs },
		}
		if snapCache != nil && run.Forked() {
			t.Run, t.Forked = forkRun(snapCache, run)
		}
		sweep.AddTask(t)
	}
	results, err := sweep.Run(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "palsweep: cancelled")
			os.Exit(1)
		}
		fatal(err)
	}
	table, archived, err := scenarioTable(cells, results, metricsDir)
	if err != nil {
		fatal(err)
	}
	if err := export.WriteTable(table, format, outDir); err != nil {
		fatal(err)
	}
	if !quiet {
		if shard.enabled() {
			fmt.Fprintf(os.Stderr, "palsweep: shard %d/%d covers %d of %d cells\n",
				shard.index, shard.count, len(cells), total)
		}
		sess.Summarize(len(cells), "scenarios", time.Since(start), engineCtrs)
		if archived > 0 {
			fmt.Fprintf(os.Stderr, "palsweep: archived %d metric payloads to %s (aggregate with palreport -in %s)\n",
				archived, metricsDir, metricsDir)
		}
	}
}

// resolveExperiments expands the -experiments flag into registry names,
// preserving order and dropping duplicates.
func resolveExperiments(s string) ([]string, error) {
	if s == "all" {
		return experiments.Names(), nil
	}
	seen := make(map[string]bool)
	var names []string
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		expanded := []string{tok}
		if g, ok := groups[tok]; ok {
			expanded = g
		}
		for _, name := range expanded {
			if experiments.Describe(name) == "" {
				return nil, fmt.Errorf("unknown experiment %q (try -list)", name)
			}
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	return names, nil
}

// progressLoop repaints a one-line progress/ETA summary until done.
func progressLoop(pool *runner.Pool, names []string, completed *sync.Map, start time.Time, done chan struct{}) {
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
		}
		finished := 0
		completed.Range(func(_, _ interface{}) bool { finished++; return true })
		st := pool.Stats()
		elapsed := time.Since(start)
		eta := "?"
		if finished > 0 && finished < len(names) {
			remaining := time.Duration(float64(elapsed) / float64(finished) * float64(len(names)-finished))
			eta = remaining.Truncate(time.Second).String()
		}
		// Trailing erase-line clears residue when the line shrinks.
		fmt.Fprintf(os.Stderr, "\rpalsweep: %d/%d experiments | %d sims done, %d pending, %d cached | elapsed %s eta %s\x1b[K",
			finished, len(names), st.Completed, st.Submitted-st.Completed, st.CacheHits,
			elapsed.Truncate(time.Second), eta)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "palsweep: %v\n", err)
	os.Exit(2)
}
