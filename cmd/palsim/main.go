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
// The run goes through the same front end as palsweep's sweeps
// (internal/cli): a one-worker runner pool, the content-addressed
// result cache, the persistent store tier with -store, and the
// execution journal with -journal — one task record naming whether the
// result was simulated or loaded from the store, plus a summary with
// store latency samples, mergeable with palsweep shard journals by
// `palreport -journal`. It ends with palsweep's summary line, so a warm
// start reads "0 simulated" from either CLI. -cpuprofile/-memprofile
// write Go pprof profiles on clean exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
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

	sess, err := cli.Open(cli.Options{Prog: "palsim", Workers: 1, StoreDir: *storeDir,
		JournalDir: *journalDir, CPUProfile: *cpuProfile, MemProfile: *memProfile})
	if err != nil {
		fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
		os.Exit(2)
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
	runScenario(sess, spec, *dumpTrace, *asJSON, *metricsDir, *decisions)
	sess.Finish()
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

// runScenario executes a scenario spec end to end: Build, then the
// content-addressed key, then one task through the session's pool and
// cache tiers. -metrics and -decisions are output-shaping flags, not
// configuration, so they are honored by switching the spec's recording
// blocks on (with a re-Normalize so the forced spec canonicalizes — and
// cache-keys — exactly like a file that enabled them).
func runScenario(sess *cli.Session, spec *scenario.Spec, dumpTrace string, asJSON bool, metricsDir string, decisions bool) {
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
	start := time.Now()
	res, ctrs, err := run(sess, built)
	if err != nil {
		fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
		os.Exit(1)
	}
	if metricsDir != "" {
		a, err := export.ArchiveRun(metricsDir, spec.Name, built.Key(), res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "palsim: wrote metrics payload %s (+%d series CSVs)\n", a.PayloadPath, len(a.Payload.Series))
		if a.Trace != nil {
			fmt.Fprintf(os.Stderr, "palsim: wrote decision trace %s (%d records)\n", a.TracePath, len(a.Trace.Records))
		}
	}
	if asJSON {
		if err := export.ResultJSON(os.Stdout, res); err != nil {
			fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
			os.Exit(1)
		}
	} else {
		header := fmt.Sprintf("scenario=%s trace=%s jobs=%d cluster=%d GPUs policy=%s sched=%s lacross=%.2f key=%s",
			spec.Name, built.Trace.Name, len(built.Trace.Jobs), built.Topo.Size(),
			spec.Policy.Name, spec.Sched.Name, spec.Locality.Lacross, built.Key()[:12])
		printMetrics(os.Stdout, header, res)
	}
	sess.Summarize(1, "scenarios", time.Since(start), []*sim.Counters{ctrs})
}

// run executes the built scenario as the one task of a sweep over the
// session's pool: the cache serves a stored result when -store holds
// one, and otherwise the engine steps here, filling the returned
// counters (left empty by a store hit).
func run(sess *cli.Session, built *scenario.Built) (*sim.Result, *sim.Counters, error) {
	ctrs := &sim.Counters{}
	built.Counters = ctrs
	sweep := runner.NewSweep(sess.Pool)
	sweep.AddTask(runner.Task{
		Key:      built.Key(),
		Label:    "scenario " + built.Spec.Name,
		Run:      built.Run,
		Counters: func() *sim.Counters { return ctrs },
	})
	results, err := sweep.Run(context.Background())
	if err != nil {
		return nil, nil, err
	}
	return results[0], ctrs, nil
}

// printMetrics renders the aggregate metric block, plus the GPUs-in-use
// deciles when the run carries a metrics payload. A statistic over no
// job is not a zero: the JCT and wait lines print "-" when no measured
// job completed, and the makespan line when no job completed at all.
func printMetrics(w io.Writer, header string, res *sim.Result) {
	jcts := res.JCTs()
	waits := res.Waits()
	fmt.Fprintln(w, header)
	if res.Truncated {
		fmt.Fprintf(w, "  TRUNCATED at %d rounds: %d jobs unfinished; metrics cover completed jobs only\n",
			res.Rounds, res.Unfinished)
	}
	if len(jcts) > 0 {
		fmt.Fprintf(w, "  avg JCT      %10.1f s (%.2f h)\n", stats.Mean(jcts), stats.Mean(jcts)/3600)
		fmt.Fprintf(w, "  p50 JCT      %10.1f s\n", stats.Percentile(jcts, 50))
		fmt.Fprintf(w, "  p99 JCT      %10.1f s\n", stats.Percentile(jcts, 99))
		fmt.Fprintf(w, "  mean wait    %10.1f s\n", stats.Mean(waits))
	} else {
		for _, label := range []string{"avg JCT", "p50 JCT", "p99 JCT", "mean wait"} {
			fmt.Fprintf(w, "  %-12s %10s\n", label, "-")
		}
	}
	if res.Unfinished < len(res.Jobs) {
		fmt.Fprintf(w, "  makespan     %10.1f s (%.2f h)\n", res.Makespan, res.Makespan/3600)
	} else {
		fmt.Fprintf(w, "  %-12s %10s\n", "makespan", "-")
	}
	fmt.Fprintf(w, "  utilization  %10.2f%%\n", 100*res.Utilization)
	fmt.Fprintf(w, "  rounds       %10d\n", res.Rounds)
	if metrics.FromResult(res) != nil {
		deciles, err := experiments.InUseDeciles(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "palsim: no in-use deciles: %v\n", err)
		} else {
			fmt.Fprintf(w, "  in-use (deciles): %s\n", strings.Join(deciles, " "))
		}
	}
}
