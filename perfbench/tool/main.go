// Command perfbench is the in-process half of the repository benchmark;
// perfbench/run.py builds and drives it.
//
//	perfbench setup -workload W [-spec FILE]
//	perfbench trace -workload W [-spec FILE] [-unshared-journal DIR]
//
// setup times, in a fresh process, the public set-up calls a CLI makes
// before its first simulation. trace replays the workload in process
// with every layer's calls timed and counted, writing its tables under
// traced/ in the working directory as palsweep -format csv would. Both
// print one JSON object on standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/vprof"
)

func main() {
	if len(os.Args) < 2 {
		fatal(fmt.Errorf("usage: perfbench setup|trace -workload NAME [flags]"))
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	workload := fs.String("workload", "", "figures-quick, grid-store or fork-grid")
	spec := fs.String("spec", "", "scenario spec file (grid-store, fork-grid)")
	workers := fs.Int("workers", 2, "pool workers, as palsweep -workers")
	unshared := fs.String("unshared-journal", "", "trace fork-grid: journal directory of the -snapshots=false sweep")
	fs.Parse(os.Args[2:])

	out := map[string]any{"go_version": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0)}
	var err error
	switch os.Args[1] {
	case "setup":
		out["setup_s"], err = timeSetup(*workload, *spec)
	case "trace":
		err = runTrace(*workload, *spec, *workers, *unshared, out)
	default:
		err = fmt.Errorf("unknown command %q (want setup or trace)", os.Args[1])
	}
	if err != nil {
		fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

func unknownWorkload(name string) error {
	return fmt.Errorf("unknown workload %q (want figures-quick, grid-store or fork-grid)", name)
}

// timeSetup times the workload's set-up calls and returns seconds.
func timeSetup(workload, spec string) (float64, error) {
	t0 := time.Now()
	var err error
	switch workload {
	case "figures-quick":
		setupFigures()
	case "grid-store", "fork-grid":
		err = setupScenario(spec)
	default:
		err = unknownWorkload(workload)
	}
	return time.Since(t0).Seconds(), err
}

// setupFigures builds what the figure runners build before their first
// simulation: the sampled Longhorn and testbed profiles, their K-Means
// binning, and the quick-scale Sia and Synergy traces.
func setupFigures() {
	sc := experiments.QuickScale()
	for _, p := range []*vprof.Profile{
		experiments.LonghornProfile(experiments.SiaTopology().Size()),
		experiments.LonghornProfile(128), // Fig. 5
		experiments.LonghornProfile(experiments.SynergyTopology().Size()),
		experiments.TestbedProfile(),
	} {
		vprof.BinProfile(p)
	}
	for _, idx := range sc.SiaTraces {
		experiments.SiaTrace(idx)
	}
	for _, load := range append(sc.SynergyLoads, sc.SchedLoads...) {
		experiments.SynergyTrace(load, sc.SynergyNumJobs)
	}
}

// runTrace replays the workload with every layer traced, adding the
// traced wall time and the per-layer metrics to out.
func runTrace(workload, spec string, workers int, unshared string, out map[string]any) error {
	l := newLedger(workers)
	t0 := time.Now()
	var err error
	switch workload {
	case "figures-quick":
		err = l.traceFigures("traced/figures")
	case "grid-store":
		err = l.traceGridStore(spec)
	case "fork-grid":
		err = l.traceForkGrid(spec)
	default:
		err = unknownWorkload(workload)
	}
	if err != nil {
		return err
	}
	out["wall_s"] = time.Since(t0).Seconds()
	if err := l.timeCodecs(); err != nil {
		return err
	}
	m := l.metrics()
	if unshared != "" {
		// The real fork saving: rounds stepped with sharing off minus
		// rounds stepped with it on.
		rounds, err := unsharedRounds(unshared)
		if err != nil {
			return err
		}
		saved := rounds - l.counters.TotalRounds()
		m["fork.rounds_saved"] = float64(saved)
		m["fork.rounds_saved_frac"] = ratio(saved, rounds)
	}
	out["metrics"] = m
	return nil
}

// figureGroups are the groups figures-quick names, as palsweep defines
// them, plus the profile figures; the traced run times each on its own.
var figureGroups = []struct {
	name        string
	experiments []string
}{
	{"profile", []string{"fig03", "fig05", "fig06_08"}},
	{"sia", []string{"fig11", "fig12", "fig13", "headline"}},
	{"synergy", []string{"fig14", "fig15", "fig16_17", "fig19", "fig20"}},
	{"testbed", []string{"fig09", "fig10", "table04"}},
	{"ablation", []string{"ablation_hysteresis", "ablation_k", "ablation_online", "ablation_priority", "ablation_rack"}},
}

// traceFigures regenerates every figures-quick table, one group at a
// time, on a pool installed with experiments.SetPool: a probe times
// every task and a recording backend sees every computed result. The
// figure runners build their placers internally, so placement and
// scheduler calls are not wrapped here; fork-grid runs the same
// policies under the wrappers.
func (l *ledger) traceFigures(out string) error {
	cache := runner.NewResultCache(0)
	cache.SetBackend(resultRecorder{l})
	pool := runner.NewPool(l.workers, cache)
	pool.SetProbe(timedProbe{l: l})
	prev := experiments.SetPool(pool)
	defer experiments.SetPool(prev)
	l.groups = make(map[string]time.Duration)
	var wall time.Duration
	for _, g := range figureGroups {
		t0 := time.Now()
		for _, name := range g.experiments {
			table, err := experiments.RunByName(name, experiments.QuickScale())
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if err := writeTable(out, table); err != nil {
				return err
			}
		}
		d := time.Since(t0)
		l.groups[g.name] = d
		wall += d
	}
	l.addPool(pool, nil, wall)
	return nil
}
