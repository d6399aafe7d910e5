// Command palsim runs a single cluster-scheduling simulation, either
// from explicit knobs (trace family, cluster size, scheduler, placement
// policy, locality penalty) or from a declarative scenario spec. It
// prints the aggregate metrics the paper reports.
//
// Examples:
//
//	palsim -trace sia -workload 5 -policy pal -sched fifo
//	palsim -trace synergy -load 10 -jobs 800 -policy tiresias -lacross 1.7
//	palsim -scenario examples/scenario/spec.json
//	palsim -scenario spec.json -dump-trace workload.json   # save the generated workload for replay
//	palsim -scenario spec.json -metrics out/               # archive telemetry (series CSVs + payload JSON)
//	palsim -scenario spec.json -decisions -metrics out/    # + decision trace, ready for palexplain
//	palsim -scenario spec.json -store results/.palstore    # repeat runs become O(read)
//	palsim -scenario spec.json -journal out/journal        # append an execution journal record
//	palsim -trace sia -workload 5 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Both ways of configuring a run end in one scenario spec: the
// simulation flags (-trace, -workload, -load, -jobs, -nodes, -policy,
// -sched, -lacross, -per-model-lacross, -seed) are the command-line
// spelling of a spec over the paper's Sia-Philly or Synergy workload on
// a Longhorn-profiled cluster, so a flag run builds, runs and
// cache-keys exactly like the same spec written as JSON
// (internal/scenario documents the format). With -scenario the file
// owns the whole configuration and the simulation flags are rejected to
// prevent silently-ignored knobs. -metrics attaches the
// fast-forward-safe collector (internal/metrics) and dumps the run's
// series and payload into the named directory, ready for
// cmd/palreport. Whenever the run carries a metrics payload (the spec's
// metrics block, or -metrics), palsim also prints the mean GPUs in use
// per tenth of the run, read from the payload's gpus_in_use series;
// per-job timelines come from -decisions -metrics DIR and
// `palexplain -in DIR -job N`.
//
// With -journal, the run appends an execution journal (internal/journal)
// into the named directory — one task record naming whether the result
// was simulated or loaded from the store, plus a summary with store
// latency samples — mergeable with palsweep shard journals by
// `palreport -journal`. -cpuprofile/-memprofile write Go pprof profiles
// on clean exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/decision"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

func main() {
	var (
		sf         simFlags
		asJSON     = flag.Bool("json", false, "print aggregate metrics as JSON")
		scenPath   = flag.String("scenario", "", "run a declarative scenario spec (JSON) instead of the flag-built configuration")
		dumpTrace  = flag.String("dump-trace", "", "save the run's workload as JSON for replay via a file-sourced spec")
		metricsDir = flag.String("metrics", "", "collect telemetry and dump the run's series (CSV) and payload (JSON) into this directory")
		decisions  = flag.Bool("decisions", false, "record the decision trace (internal/decision); with -metrics, the trace is archived next to the payload for palexplain")
		storeDir   = flag.String("store", "", "persistent result-store directory: repeat runs of the same configuration load from disk instead of simulating")
		journalDir = flag.String("journal", "", "append this run's execution journal (task record, store latency, summary) into this directory for palreport -journal")
		cpuProfile = flag.String("cpuprofile", "", "write a Go CPU profile to this file (flushed on clean exit)")
		memProfile = flag.String("memprofile", "", "write a Go heap profile to this file on clean exit")
	)
	sf.register(flag.CommandLine)
	flag.Parse()

	var err error
	stopProfiles, err = journal.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
		os.Exit(2)
	}
	if *journalDir != "" {
		jw, err = journal.Create(*journalDir, journal.Header{Role: "palsim", Workers: 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
			os.Exit(2)
		}
	}

	var spec *scenario.Spec
	if *scenPath != "" {
		// The spec owns the whole configuration; a simulation flag
		// alongside it would be silently ignored, so reject the
		// combination.
		flag.Visit(func(f *flag.Flag) {
			if isSimFlag(f.Name) {
				fmt.Fprintf(os.Stderr, "palsim: -%s conflicts with -scenario (the spec sets it)\n", f.Name)
				os.Exit(2)
			}
		})
		spec, err = scenario.LoadFile(*scenPath)
	} else {
		spec, err = sf.spec()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
		os.Exit(2)
	}
	runScenario(spec, *dumpTrace, *asJSON, *metricsDir, *decisions, *storeDir)
	finishJournal()
}

// simFlags holds palsim's simulation flags, the command-line spelling
// of a scenario spec's core fields.
type simFlags struct {
	trace    string
	workload int
	load     float64
	jobs     int
	policy   string
	sched    string
	nodes    int
	lacross  float64
	perModel bool
	seed     uint64
}

// register binds the simulation flags with their defaults.
func (f *simFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.trace, "trace", "sia", "trace family: sia or synergy")
	fs.IntVar(&f.workload, "workload", 1, "Sia-Philly workload index (1-8)")
	fs.Float64Var(&f.load, "load", 10, "Synergy job arrival rate (jobs/hour)")
	fs.IntVar(&f.jobs, "jobs", 800, "Synergy trace length")
	fs.StringVar(&f.policy, "policy", "pal", "placement policy: random-sticky, random, gandiva, tiresias, pm-first, pal")
	fs.StringVar(&f.sched, "sched", "fifo", "scheduling policy: fifo, las, srtf")
	fs.IntVar(&f.nodes, "nodes", 0, "cluster nodes (default: 16 for sia, 64 for synergy)")
	fs.Float64Var(&f.lacross, "lacross", 1.5, "inter-node locality penalty")
	fs.BoolVar(&f.perModel, "per-model-lacross", false, "use per-model locality penalties (Table II)")
	fs.Uint64Var(&f.seed, "seed", 0xE4B, "experiment seed")
}

// isSimFlag reports whether name is one of the flags register binds,
// which -scenario rejects.
func isSimFlag(name string) bool {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	new(simFlags).register(fs)
	return fs.Lookup(name) != nil
}

// spec translates the flags into a normalized, validated scenario spec:
// the paper's Sia-Philly (-workload) or Synergy (-load, -jobs) trace on
// a Longhorn-profiled cluster of -nodes nodes (default: the paper's 64
// GPUs for sia, 256 for synergy). The workload and profile seeds keep
// the spec defaults, which are the paper figures' generators, so a flag
// run consumes exactly the trace and profile its figure runs on. A
// policy alias ("tiresias", "gandiva", ...) is spelled canonically, so
// both names of one placer draw the same placer seed stream.
func (f simFlags) spec() (*scenario.Spec, error) {
	s := &scenario.Spec{
		Seed:     f.seed,
		Cluster:  scenario.ClusterSpec{Nodes: f.nodes, GPUsPerNode: experiments.GPUsPerNode},
		Policy:   scenario.PolicySpec{Name: place.Canonical(f.policy)},
		Sched:    scenario.SchedSpec{Name: f.sched},
		Locality: scenario.LocalitySpec{Lacross: f.lacross, PerModel: f.perModel},
	}
	var traceName string
	defaultNodes := experiments.SiaClusterNodes
	switch f.trace {
	case "sia":
		s.Workload = scenario.WorkloadSpec{Source: "sia-philly", Workload: f.workload}
		traceName = fmt.Sprintf("sia-philly-%d", f.workload)
	case "synergy":
		s.Workload = scenario.WorkloadSpec{Source: "synergy", JobsPerHour: f.load, NumJobs: f.jobs}
		traceName = fmt.Sprintf("synergy-%.1fjph", f.load)
		defaultNodes = experiments.SynergyClusterNodes
	default:
		return nil, fmt.Errorf("unknown trace family %q (want sia or synergy)", f.trace)
	}
	if s.Cluster.Nodes == 0 {
		s.Cluster.Nodes = defaultNodes
	}
	s.Name = fmt.Sprintf("%s-%s-%s", traceName, s.Policy.Name, f.sched)
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Journal state for the optional -journal/-cpuprofile/-memprofile
// flags. palsim runs one simulation, so the journal holds a single
// synthetic worker slot whose tallies throughStore maintains; fatal
// paths leave a summary-less journal, which the reader reports as
// incomplete rather than guessing.
var (
	jw           *journal.Writer
	storeProbe   *journal.BackendProbe
	tally        runner.Stats
	cacheTally   runner.CacheStats
	stopProfiles = func() error { return nil }
	// engineCtrs collects the run's engine introspection counters; both
	// run paths attach it to their config, throughStore hands it to the
	// journal for executed outcomes, and finishJournal prints its
	// summary (a store hit leaves it empty: no engine stepped here).
	engineCtrs = &sim.Counters{}
)

// finishJournal closes the journal with the run's summary and flushes
// any profiles; called on every clean exit path.
func finishJournal() {
	if engineCtrs.TotalRounds() > 0 {
		fmt.Fprintf(os.Stderr, "palsim: %s\n", engineCtrs.Summary())
	}
	if jw != nil {
		ct := cacheTally
		sum := journal.Summary{Runner: tally, Cache: &ct}
		if storeProbe != nil {
			sum.StoreGet, sum.StorePut = storeProbe.Stats()
		}
		if err := jw.Close(sum); err != nil {
			fmt.Fprintf(os.Stderr, "palsim: WARNING: journal degraded: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "palsim: journal %s\n", jw.Path())
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
	}
}

// throughStore runs the simulation through the persistent store when
// -store is set: a stored result for the run's content-addressed key is
// loaded instead of simulating, and a fresh result is persisted for
// later invocations. Store failures degrade to simulating (with an
// explicit WARNING), mirroring the runner cache's backend semantics. It
// finishes with the same `simulated / cache hits (memory, store) /
// stored` summary line palsweep prints, so warm starts are observable
// from both CLIs (palsim has no in-memory tier, so "memory" is always 0
// here). With -journal, the run lands in the journal as one task span
// whose outcome names the tier that satisfied it.
func throughStore(dir, key, label string, run func() (*sim.Result, error)) *sim.Result {
	start := time.Now()
	observe := func(outcome runner.TaskOutcome, runDur time.Duration, err error) {
		tally.Submitted++
		tally.Completed++
		switch outcome {
		case runner.OutcomeStoreHit:
			tally.CacheHits++
			cacheTally.StoreHits++
		default:
			tally.Executed++
			cacheTally.Misses++
		}
		if jw != nil {
			var ctrs *sim.Counters
			if outcome == runner.OutcomeExecuted {
				ctrs = engineCtrs
			}
			jw.ObserveTask(runner.TaskSpan{Key: key, Label: label, Outcome: outcome,
				Err: err, Start: start, Duration: time.Since(start), Run: runDur,
				Counters: ctrs})
		}
	}
	var backend runner.Backend
	if dir != "" {
		st, err := store.Open(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
			os.Exit(2)
		}
		backend = st
		if jw != nil {
			storeProbe = journal.ProbeBackend(st)
			backend = storeProbe
		}
		res, ok, err := backend.Get(key)
		switch {
		case err != nil:
			cacheTally.StoreErrors++
			fmt.Fprintf(os.Stderr, "palsim: WARNING: store degraded, simulating: %v\n", err)
		case ok:
			fmt.Fprintf(os.Stderr, "palsim: loaded result from store (key %s)\n", key[:16])
			fmt.Fprintln(os.Stderr, "palsim: 0 simulated, 1 cache hits (0 memory, 1 store)")
			observe(runner.OutcomeStoreHit, 0, nil)
			return res
		}
	}
	t0 := time.Now()
	res, err := run()
	runDur := time.Since(t0)
	if err != nil {
		observe(runner.OutcomeError, runDur, err)
		fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
		os.Exit(1)
	}
	if backend != nil {
		summary := "1 simulated, 0 cache hits (0 memory, 0 store)"
		if perr := backend.Put(key, res); perr != nil {
			cacheTally.StoreErrors++
			fmt.Fprintf(os.Stderr, "palsim: WARNING: store write failed, result not persisted: %v\n", perr)
			summary += ", 1 store errors"
		} else {
			cacheTally.Stored++
			fmt.Fprintf(os.Stderr, "palsim: stored result (key %s)\n", key[:16])
			summary += ", 1 stored"
		}
		fmt.Fprintf(os.Stderr, "palsim: %s\n", summary)
	}
	observe(runner.OutcomeExecuted, runDur, nil)
	return res
}

// dumpMetrics archives a run's telemetry payload (with the cache key
// stamped on a copy — the original may be shared through the runner
// cache) and per-series CSVs, plus the run's decision trace when one was
// recorded (ready for cmd/palexplain).
func dumpMetrics(dir, base string, res *sim.Result, key string) {
	payload := metrics.FromResult(res)
	if payload == nil {
		fmt.Fprintln(os.Stderr, "palsim: run produced no metrics payload")
		os.Exit(1)
	}
	p := *payload
	p.Key = key
	path, err := export.WriteMetricsDir(dir, base, &p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "palsim: wrote metrics payload %s (+%d series CSVs)\n", path, len(p.Series))
	if tr := decision.FromResult(res); tr != nil {
		t := *tr
		t.Key = key
		tpath, err := export.WriteDecisionsFile(dir, base, &t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "palsim: wrote decision trace %s (%d records)\n", tpath, len(t.Records))
	}
}

// runScenario executes a scenario spec end to end: Build, then the
// content-addressed key, then the store-backed run. -metrics and
// -decisions are output-shaping flags, not configuration, so they are
// honored by switching the spec's recording blocks on (with a
// re-Normalize so the forced spec canonicalizes — and cache-keys —
// exactly like a file that enabled them).
func runScenario(spec *scenario.Spec, dumpTrace string, asJSON bool, metricsDir string, decisions bool, storeDir string) {
	if metricsDir != "" {
		spec.Metrics.Enabled = true
	}
	if decisions {
		spec.Decisions.Enabled = true
	}
	if metricsDir != "" || decisions {
		spec.Normalize()
	}
	built, err := spec.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
		os.Exit(2)
	}
	built.Counters = engineCtrs
	if dumpTrace != "" {
		f, err := os.Create(dumpTrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
			os.Exit(1)
		}
		if err := built.Trace.Save(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "palsim: dump-trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "palsim: saved %d-job workload to %s\n", len(built.Trace.Jobs), dumpTrace)
	}
	res := throughStore(storeDir, built.Key(), "scenario "+spec.Name, built.Run)
	if metricsDir != "" {
		dumpMetrics(metricsDir, spec.Name, res, built.Key())
	}
	if asJSON {
		if err := export.ResultJSON(os.Stdout, res); err != nil {
			fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	header := fmt.Sprintf("scenario=%s trace=%s jobs=%d cluster=%d GPUs policy=%s sched=%s lacross=%.2f key=%s",
		spec.Name, built.Trace.Name, len(built.Trace.Jobs), built.Topo.Size(),
		spec.Policy.Name, spec.Sched.Name, spec.Locality.Lacross, built.Key()[:12])
	printMetrics(header, res)
}

// printMetrics renders the aggregate metric block, plus the GPUs-in-use
// deciles when the run carries a metrics payload.
func printMetrics(header string, res *sim.Result) {
	jcts := res.JCTs()
	waits := res.Waits()
	fmt.Println(header)
	if res.Truncated {
		fmt.Printf("  TRUNCATED at %d rounds: %d jobs unfinished; metrics cover completed jobs only\n",
			res.Rounds, res.Unfinished)
	}
	fmt.Printf("  avg JCT      %10.1f s (%.2f h)\n", stats.Mean(jcts), stats.Mean(jcts)/3600)
	fmt.Printf("  p50 JCT      %10.1f s\n", stats.Percentile(jcts, 50))
	fmt.Printf("  p99 JCT      %10.1f s\n", stats.Percentile(jcts, 99))
	fmt.Printf("  mean wait    %10.1f s\n", stats.Mean(waits))
	fmt.Printf("  makespan     %10.1f s (%.2f h)\n", res.Makespan, res.Makespan/3600)
	fmt.Printf("  utilization  %10.2f%%\n", 100*res.Utilization)
	fmt.Printf("  rounds       %10d\n", res.Rounds)
	if metrics.FromResult(res) != nil {
		deciles, err := experiments.InUseDeciles(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "palsim: no in-use deciles: %v\n", err)
		} else {
			fmt.Printf("  in-use (deciles): %s\n", strings.Join(deciles, " "))
		}
	}
}
