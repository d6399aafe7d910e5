package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vprof"
)

// This file holds ablation experiments beyond the paper's figures,
// probing the design choices DESIGN.md calls out: the number of PM-score
// bins (K), the placement-priority reordering, migration hysteresis, the
// online re-profiling extension, and the three-level rack locality
// extension.
//
// Every ablation runs figure cells. Its paper-default row is the plain
// cell, keyed and cached like any figure's (the PM-First rows share
// fig11's cells, the static-profile row table04's), and each variant
// row is the same cells under an alteration that replaces only the
// placer, which runCells runs uncached.

// variant is one ablation row: the ablation's cells under alter, where
// a nil alter is the plain cells, the paper's configuration.
type variant struct {
	name  string
	alter alteration
}

// ablate runs the cells once per variant and adds a row per variant to
// t: its name, the mean over the cells of their average JCT, then the
// columns extra (when non-nil) derives from its results. It returns
// each variant's mean JCT.
func ablate(scale Scale, t *Table, cells []*scenario.Spec, variants []variant, extra func([]*sim.Result) []string) ([]float64, error) {
	means := make([]float64, len(variants))
	for i, v := range variants {
		results, err := runCells(scale.ctx(), t.Name, cells, v.alter)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", t.Name, v.name, err)
		}
		jcts := make([]float64, len(results))
		for j, res := range results {
			jcts[j] = stats.Mean(res.JCTs())
		}
		means[i] = stats.Mean(jcts)
		row := []string{v.name, Hours(means[i])}
		if extra != nil {
			row = append(row, extra(results)...)
		}
		t.AddRow(row...)
	}
	return means, nil
}

// siaCells returns the Sia baseline cell of every trace of the scale for
// pol under the named scheduler.
func siaCells(scale Scale, pol Policy, schedName string) []*scenario.Spec {
	specs := make([]*scenario.Spec, 0, len(scale.SiaTraces))
	for _, idx := range scale.SiaTraces {
		specs = append(specs, siaSpec(idx, pol, schedName))
	}
	return specs
}

// AblationK sweeps the number of PM-score bins feeding PM-First, from
// K=1 (variability-blind) through fixed Ks to the silhouette-selected
// binning and exact per-GPU scores (§III-B's "very small K loses
// information, very high K overestimates variability").
func AblationK(scale Scale) (*Table, error) {
	t := &Table{
		Name:   "ablation_k",
		Title:  "PM-First avg JCT (hours) vs PM-score bin count (Sia, FIFO)",
		Header: []string{"binning", "avg JCT (h)"},
	}
	var variants []variant
	for _, k := range []int{1, 2, 4, 8} {
		variants = append(variants, variant{fmt.Sprintf("fixed K=%d", k), func(b *scenario.Built, cfg *sim.Config) {
			cfg.Placer = core.NewPMFirst(vprof.BinProfileK(b.Profile, k))
		}})
	}
	variants = append(variants,
		variant{"silhouette-selected", nil},
		variant{"exact scores", func(b *scenario.Built, cfg *sim.Config) { cfg.Placer = core.NewPMFirst(b.Profile) }},
	)
	if _, err := ablate(scale, t, siaCells(scale, PMFirst, "fifo"), variants, nil); err != nil {
		return nil, err
	}
	t.Note("K=1 collapses every GPU into one bin (variability-blind); exact scores are the upper bound on information")
	return t, nil
}

// AblationPriority compares PM-First with and without the class-based
// placement-priority reordering of the schedulable prefix (Fig. 4).
func AblationPriority(scale Scale) (*Table, error) {
	t := &Table{
		Name:   "ablation_priority",
		Title:  "Effect of class placement priority on PM-First (Sia, FIFO)",
		Header: []string{"variant", "avg JCT (h)"},
	}
	jcts, err := ablate(scale, t, siaCells(scale, PMFirst, "fifo"), []variant{
		{"class priority on (paper)", nil},
		{"class priority off", func(b *scenario.Built, cfg *sim.Config) {
			p := core.NewPMFirst(scenario.Bins(b.Profile))
			p.NoClassPriority = true
			cfg.Placer = p
		}},
	}, nil)
	if err != nil {
		return nil, err
	}
	t.Note("priority-on lets class-A jobs pick well-performing GPUs first: %s JCT change when disabled",
		Pct(stats.Improvement(jcts[1], jcts[0])))
	return t, nil
}

// AblationHysteresis compares PAL with and without migration hysteresis
// (re-using the previous allocation when it is not strictly worse).
func AblationHysteresis(scale Scale) (*Table, error) {
	t := &Table{
		Name:   "ablation_hysteresis",
		Title:  "Effect of migration hysteresis on PAL (Sia, LAS)",
		Header: []string{"variant", "avg JCT (h)", "migrations/job"},
	}
	migrationsPerJob := func(results []*sim.Result) []string {
		migs := make([]float64, len(results))
		for i, res := range results {
			total := 0
			for _, j := range res.Jobs {
				total += j.Migrations
			}
			migs[i] = float64(total) / float64(len(res.Jobs))
		}
		return []string{fmt.Sprintf("%.2f", stats.Mean(migs))}
	}
	_, err := ablate(scale, t, siaCells(scale, PALPolicy, "las"), []variant{
		{"hysteresis on", nil},
		{"hysteresis off", func(b *scenario.Built, cfg *sim.Config) {
			p := core.NewPAL(scenario.Bins(b.Profile), cfg.Lacross, cfg.ModelLacross)
			p.NoHysteresis = true
			cfg.Placer = p
		}},
	}, migrationsPerJob)
	if err != nil {
		return nil, err
	}
	t.Note("hysteresis avoids checkpoint costs from equal-quality reshuffles")
	return t, nil
}

// AblationOnline replays the stale-profile testbed scenario (§V-A) with
// the online re-profiling extension: the OnlineScorer learns the true
// node-0 scores from execution feedback, shrinking the cluster-to-sim gap
// the paper attributes to static profiles.
func AblationOnline(scale Scale) (*Table, error) {
	t := &Table{
		Name:   "ablation_online",
		Title:  "Online PM-score re-profiling vs static stale profile (testbed cluster mode)",
		Header: []string{"variant", "avg JCT (h)"},
	}
	// The static stale profile is the paper's configuration, table04's
	// PAL cluster-mode cell; online, the scorer observes realized
	// slowdowns and corrects.
	jcts, err := ablate(scale, t, []*scenario.Spec{testbedSpec(PALPolicy, true)}, []variant{
		{"PAL, static stale profile", nil},
		{"PAL, online re-profiling", func(b *scenario.Built, cfg *sim.Config) {
			scorer := core.NewOnlineScorer(scenario.Bins(b.Profile))
			cfg.Placer = core.NewPAL(scorer, cfg.Lacross, cfg.ModelLacross)
			cfg.Observer = scorer
		}},
	}, nil)
	if err != nil {
		return nil, err
	}
	t.Note("online updates recover %s of JCT vs the stale static profile (paper's proposed fix for the cluster/sim gap)",
		Pct(stats.Improvement(jcts[0], jcts[1])))
	return t, nil
}

// AblationRack evaluates the three-level rack locality extension on a
// racked 64-GPU cluster: with a cheap intra-rack penalty, three-level PAL
// can spill packed jobs into the rack instead of paying the full
// cross-rack penalty.
func AblationRack(scale Scale) (*Table, error) {
	const lrack, lacross = 1.15, 1.8
	t := &Table{
		Name:   "ablation_rack",
		Title:  "Two-level vs three-level (rack) L x V matrix (racked Sia cluster)",
		Header: []string{"variant", "avg JCT (h)"},
	}
	// The Sia cluster in 4 racks x 4 nodes x 4 GPUs, whose spec-built
	// PAL is the three-level one.
	cells := make([]*scenario.Spec, 0, len(scale.SiaTraces))
	for _, idx := range scale.SiaTraces {
		spec := cellSpec(SiaClusterNodes, siaWorkload(idx), PALPolicy, "fifo", lacross, ExperimentSeed^uint64(idx))
		spec.Cluster.NodesPerRack = 4
		spec.Locality.Lrack = lrack
		cells = append(cells, spec)
	}
	_, err := ablate(scale, t, cells, []variant{
		{"two-level (paper)", func(b *scenario.Built, cfg *sim.Config) {
			cfg.Placer = core.NewPAL(scenario.Bins(b.Profile), cfg.Lacross, cfg.ModelLacross)
		}},
		{"three-level (rack extension)", nil},
	}, nil)
	if err != nil {
		return nil, err
	}
	t.Note("both runs execute under the rack-aware cost model (Lrack=%.2f, Lacross=%.2f); only the placer's matrix differs", lrack, lacross)
	return t, nil
}
