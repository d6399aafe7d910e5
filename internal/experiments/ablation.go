package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// This file holds ablation experiments beyond the paper's figures,
// probing the design choices DESIGN.md calls out: the number of PM-score
// bins (K), the placement-priority reordering, migration hysteresis, the
// online re-profiling extension, and the three-level rack locality
// extension.

// ablationTask wraps one hand-built ablation run as a pool task. The
// tasks are uncached (empty keys): ablation placers are hand-built
// closures whose configuration has no canonical hash, and caching a
// mis-keyed run is exactly the hazard the content-addressed cache
// exists to prevent. configure builds the sim.Config inside the worker,
// so every run gets fresh placer state; the task carries its own engine
// counters like every figure cell.
func ablationTask(label string, configure func() sim.Config) runner.Task {
	ctrs := &sim.Counters{}
	return runner.Task{
		Label: label,
		Run: func() (*sim.Result, error) {
			cfg := configure()
			cfg.Counters = ctrs
			return sim.Run(cfg)
		},
		Counters: func() *sim.Counters { return ctrs },
	}
}

// runSiaAblation fans one simulation per Sia trace out through the
// shared pool and returns the per-trace results in trace order.
func runSiaAblation(scale Scale, label string, configure func(idx int) sim.Config) ([]*sim.Result, error) {
	sweep := runner.NewSweep(Pool())
	for _, idx := range scale.SiaTraces {
		sweep.AddTask(ablationTask(fmt.Sprintf("%s w%d", label, idx), func() sim.Config { return configure(idx) }))
	}
	return sweep.Run(scale.ctx())
}

// runSiaWithPlacer runs the Sia baseline configuration with an explicit
// placer, averaged over the scale's traces.
func runSiaWithPlacer(scale Scale, build func() sim.Placer) (float64, error) {
	profile := LonghornProfile(SiaTopology().Size())
	results, err := runSiaAblation(scale, "ablation", func(idx int) sim.Config {
		return sim.Config{
			Topology:            SiaTopology(),
			Trace:               SiaTrace(idx),
			Sched:               sched.FIFO{},
			Placer:              build(),
			TrueProfile:         profile,
			Lacross:             1.5,
			ModelLacross:        trace.LacrossByModel(),
			MigrationPenaltySec: scenario.DefaultMigrationPenaltySec,
		}
	})
	if err != nil {
		return 0, err
	}
	var jcts []float64
	for _, res := range results {
		jcts = append(jcts, stats.Mean(res.JCTs()))
	}
	return stats.Mean(jcts), nil
}

// AblationK sweeps the number of PM-score bins feeding PM-First, from
// K=1 (variability-blind) through fixed Ks to the silhouette-selected
// binning and exact per-GPU scores (§III-B's "very small K loses
// information, very high K overestimates variability").
func AblationK(scale Scale) (*Table, error) {
	profile := LonghornProfile(SiaTopology().Size())
	t := &Table{
		Name:   "ablation_k",
		Title:  "PM-First avg JCT (hours) vs PM-score bin count (Sia, FIFO)",
		Header: []string{"binning", "avg JCT (h)"},
	}
	type variant struct {
		name  string
		build func() sim.Placer
	}
	variants := []variant{}
	for _, k := range []int{1, 2, 4, 8} {
		k := k
		variants = append(variants, variant{
			name: fmt.Sprintf("fixed K=%d", k),
			build: func() sim.Placer {
				return core.NewPMFirst(vprof.BinProfileK(profile, k))
			},
		})
	}
	variants = append(variants,
		variant{"silhouette-selected", func() sim.Placer {
			return core.NewPMFirst(scenario.Bins(profile))
		}},
		variant{"exact scores", func() sim.Placer {
			return core.NewPMFirst(profile)
		}},
	)
	for _, v := range variants {
		jct, err := runSiaWithPlacer(scale, v.build)
		if err != nil {
			return nil, fmt.Errorf("ablation_k %s: %w", v.name, err)
		}
		t.AddRow(v.name, Hours(jct))
	}
	t.Note("K=1 collapses every GPU into one bin (variability-blind); exact scores are the upper bound on information")
	return t, nil
}

// AblationPriority compares PM-First with and without the class-based
// placement-priority reordering of the schedulable prefix (Fig. 4).
func AblationPriority(scale Scale) (*Table, error) {
	profile := LonghornProfile(SiaTopology().Size())
	t := &Table{
		Name:   "ablation_priority",
		Title:  "Effect of class placement priority on PM-First (Sia, FIFO)",
		Header: []string{"variant", "avg JCT (h)"},
	}
	withJCT, err := runSiaWithPlacer(scale, func() sim.Placer {
		return core.NewPMFirst(scenario.Bins(profile))
	})
	if err != nil {
		return nil, err
	}
	withoutJCT, err := runSiaWithPlacer(scale, func() sim.Placer {
		p := core.NewPMFirst(scenario.Bins(profile))
		p.NoClassPriority = true
		return p
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("class priority on (paper)", Hours(withJCT))
	t.AddRow("class priority off", Hours(withoutJCT))
	t.Note("priority-on lets class-A jobs pick well-performing GPUs first: %s JCT change when disabled",
		Pct(stats.Improvement(withoutJCT, withJCT)))
	return t, nil
}

// AblationHysteresis compares PAL with and without migration hysteresis
// (re-using the previous allocation when it is not strictly worse).
func AblationHysteresis(scale Scale) (*Table, error) {
	profile := LonghornProfile(SiaTopology().Size())
	t := &Table{
		Name:   "ablation_hysteresis",
		Title:  "Effect of migration hysteresis on PAL (Sia, LAS)",
		Header: []string{"variant", "avg JCT (h)", "migrations/job"},
	}
	run := func(disable bool) (float64, float64, error) {
		results, err := runSiaAblation(scale, "ablation_hysteresis", func(idx int) sim.Config {
			p := core.NewPAL(scenario.Bins(profile), 1.5, trace.LacrossByModel())
			p.NoHysteresis = disable
			return sim.Config{
				Topology:            SiaTopology(),
				Trace:               SiaTrace(idx),
				Sched:               sched.LAS{},
				Placer:              p,
				TrueProfile:         profile,
				Lacross:             1.5,
				ModelLacross:        trace.LacrossByModel(),
				MigrationPenaltySec: scenario.DefaultMigrationPenaltySec,
			}
		})
		if err != nil {
			return 0, 0, err
		}
		var jcts, migs []float64
		for _, res := range results {
			jcts = append(jcts, stats.Mean(res.JCTs()))
			total := 0
			for _, j := range res.Jobs {
				total += j.Migrations
			}
			migs = append(migs, float64(total)/float64(len(res.Jobs)))
		}
		return stats.Mean(jcts), stats.Mean(migs), nil
	}
	onJCT, onMig, err := run(false)
	if err != nil {
		return nil, err
	}
	offJCT, offMig, err := run(true)
	if err != nil {
		return nil, err
	}
	t.AddRow("hysteresis on", Hours(onJCT), fmt.Sprintf("%.2f", onMig))
	t.AddRow("hysteresis off", Hours(offJCT), fmt.Sprintf("%.2f", offMig))
	t.Note("hysteresis avoids checkpoint costs from equal-quality reshuffles")
	return t, nil
}

// AblationOnline replays the stale-profile testbed scenario (§V-A) with
// the online re-profiling extension: the OnlineScorer learns the true
// node-0 scores from execution feedback, shrinking the cluster-to-sim gap
// the paper attributes to static profiles.
func AblationOnline(scale Scale) (*Table, error) {
	// The cluster, trace, stale profile and its truth are the testbed
	// cluster-mode cell's.
	cell, err := buildCell(testbedSpec(PALPolicy, true))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:   "ablation_online",
		Title:  "Online PM-score re-profiling vs static stale profile (testbed cluster mode)",
		Header: []string{"variant", "avg JCT (h)"},
	}
	base := scenario.Bins(cell.Profile)

	// Both variants go through the pool (uncached: the online scorer is
	// mutable per-run state) so cancellation reaches them; each task
	// builds its own placer/observer inside the worker.
	baseConfig := func() sim.Config {
		return sim.Config{
			Topology:            cell.Topo,
			Trace:               cell.Trace,
			Sched:               sched.LAS{},
			TrueProfile:         cell.TrueProfile,
			Lacross:             1.5,
			ModelLacross:        trace.LacrossByModel(),
			MigrationPenaltySec: scenario.DefaultMigrationPenaltySec,
		}
	}
	sweep := runner.NewSweep(Pool())
	// Static stale profile (the paper's configuration).
	sweep.AddTask(ablationTask("ablation_online static", func() sim.Config {
		cfg := baseConfig()
		cfg.Placer = core.NewPAL(base, 1.5, trace.LacrossByModel())
		return cfg
	}))
	// Online: the scorer observes realized slowdowns and corrects.
	sweep.AddTask(ablationTask("ablation_online online", func() sim.Config {
		online := core.NewOnlineScorer(base)
		cfg := baseConfig()
		cfg.Placer = core.NewPAL(online, 1.5, trace.LacrossByModel())
		cfg.Observer = online
		return cfg
	}))
	results, err := sweep.Run(scale.ctx())
	if err != nil {
		return nil, err
	}

	staticJCT := stats.Mean(results[0].JCTs())
	onlineJCT := stats.Mean(results[1].JCTs())
	t.AddRow("PAL, static stale profile", Hours(staticJCT))
	t.AddRow("PAL, online re-profiling", Hours(onlineJCT))
	t.Note("online updates recover %s of JCT vs the stale static profile (paper's proposed fix for the cluster/sim gap)",
		Pct(stats.Improvement(staticJCT, onlineJCT)))
	return t, nil
}

// AblationRack evaluates the three-level rack locality extension on a
// racked 64-GPU cluster: with a cheap intra-rack penalty, three-level PAL
// can spill packed jobs into the rack instead of paying the full
// cross-rack penalty.
func AblationRack(scale Scale) (*Table, error) {
	topo := SiaTopology()
	topo.NodesPerRack = 4 // 4 racks x 4 nodes x 4 GPUs
	profile := LonghornProfile(topo.Size())
	const lrack, lacross = 1.15, 1.8

	t := &Table{
		Name:   "ablation_rack",
		Title:  "Two-level vs three-level (rack) L x V matrix (racked Sia cluster)",
		Header: []string{"variant", "avg JCT (h)"},
	}
	run := func(rack bool) (float64, error) {
		results, err := runSiaAblation(scale, "ablation_rack", func(idx int) sim.Config {
			p := core.NewPAL(scenario.Bins(profile), lacross, nil)
			if rack {
				p.EnableRackLevel(lrack)
			}
			return sim.Config{
				Topology:            topo,
				Trace:               SiaTrace(idx),
				Sched:               sched.FIFO{},
				Placer:              p,
				TrueProfile:         profile,
				Lacross:             lacross,
				Lrack:               lrack,
				MigrationPenaltySec: scenario.DefaultMigrationPenaltySec,
			}
		})
		if err != nil {
			return 0, err
		}
		var jcts []float64
		for _, res := range results {
			jcts = append(jcts, stats.Mean(res.JCTs()))
		}
		return stats.Mean(jcts), nil
	}
	two, err := run(false)
	if err != nil {
		return nil, err
	}
	three, err := run(true)
	if err != nil {
		return nil, err
	}
	t.AddRow("two-level (paper)", Hours(two))
	t.AddRow("three-level (rack extension)", Hours(three))
	t.Note("both runs execute under the rack-aware cost model (Lrack=%.2f, Lacross=%.2f); only the placer's matrix differs", lrack, lacross)
	return t, nil
}
