package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// synergySpec assembles one Synergy simulation of the load/scheduler/
// penalty grids. recordUtil enables the metrics block restricted to the
// gpus_in_use series, which Fig. 15 reads back (InUseDeciles).
func synergySpec(scale Scale, load float64, pol Policy, schedName string, lacross float64, recordUtil bool) *scenario.Spec {
	w := scenario.WorkloadSpec{Source: "synergy", JobsPerHour: load, NumJobs: scale.SynergyNumJobs}
	// One independent stream per (scheduler, load) cell, shared across
	// policies so comparisons stay paired. The old ad-hoc mix
	// (ExperimentSeed ^ uint64(load*10) ^ uint64(len(schedName)))
	// collided srtf with fifo — len 4 both — and truncated loads.
	seed := runner.DeriveSeed(ExperimentSeed, fmt.Sprintf("synergy|%s|load%g", schedName, load))
	spec := cellSpec(SynergyClusterNodes, w, pol, schedName, lacross, seed)
	spec.Engine.MeasureFirst = scale.SynergyMeasureFirst
	spec.Engine.MeasureLast = scale.SynergyMeasureLast
	if recordUtil {
		spec.Metrics = scenario.MetricsSpec{Enabled: true, Series: []string{metrics.SeriesGPUsInUse}}
	}
	return spec
}

// runSynergy executes one Synergy simulation through the pool (single-
// cell convenience used by the integration tests; the figures enumerate
// whole grids instead).
func runSynergy(scale Scale, load float64, pol Policy, schedName string, lacross float64, recordUtil bool) (*sim.Result, error) {
	results, err := RunCells(scale.ctx(), "synergy", []*scenario.Spec{synergySpec(scale, load, pol, schedName, lacross, recordUtil)})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// Fig14 reproduces Figure 14: Synergy average JCT under FIFO as the job
// load sweeps (paper: 4-20 jobs/hour on the 256-GPU cluster, constant
// locality penalty 1.7). Also reports the multi-GPU-only JCTs §V-C quotes
// (PAL improves multi-GPU jobs 5-31% over Tiresias).
func Fig14(scale Scale) (*Table, error) {
	t := &Table{
		Name:   "fig14",
		Title:  "Synergy avg JCT (hours) vs job load, FIFO, 256 GPUs, L=1.7",
		Header: []string{"policy"},
	}
	for _, load := range scale.SynergyLoads {
		t.Header = append(t.Header, fmt.Sprintf("%gj/h", load))
	}
	specs := make([]*scenario.Spec, 0, len(scale.SynergyLoads)*len(AllPolicies()))
	for _, load := range scale.SynergyLoads {
		for _, pol := range AllPolicies() {
			specs = append(specs, synergySpec(scale, load, pol, "fifo", SynergyLacross, false))
		}
	}
	results, err := RunCells(scale.ctx(), "fig14", specs)
	if err != nil {
		return nil, fmt.Errorf("fig14: %w", err)
	}
	avg := make(map[Policy][]float64)
	multi := make(map[Policy][]float64)
	i := 0
	for range scale.SynergyLoads {
		for _, pol := range AllPolicies() {
			res := results[i]
			i++
			avg[pol] = append(avg[pol], stats.Mean(res.JCTs()))
			multi[pol] = append(multi[pol], stats.Mean(res.MultiGPUJCTs()))
		}
	}
	for _, pol := range AllPolicies() {
		row := []string{pol.String()}
		for _, v := range avg[pol] {
			row = append(row, Hours(v))
		}
		t.AddRow(row...)
	}
	for i, load := range scale.SynergyLoads {
		t.Note("load %gj/h: PAL vs Tiresias avg JCT %s, multi-GPU-only %s (paper: 4-9%% overall, 5-31%% multi-GPU)",
			load,
			Pct(stats.Improvement(avg[Tiresias][i], avg[PALPolicy][i])),
			Pct(stats.Improvement(multi[Tiresias][i], multi[PALPolicy][i])))
	}
	return t, nil
}

// Fig15 reproduces Figure 15: GPUs in use over time for Tiresias vs PAL
// at 8 and 10 jobs/hour. The series is reported as mean GPUs-in-use per
// decile of the simulated span, showing the under-utilization dip at 8
// j/h and saturation at 10 j/h, plus PAL "running ahead" of Tiresias.
func Fig15(scale Scale) (*Table, error) {
	t := &Table{
		Name:   "fig15",
		Title:  "GPUs in use over time (mean per decile of span), FIFO, 256 GPUs",
		Header: []string{"load", "policy", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10", "drain (h)"},
	}
	// Both quick and full scales examine the same two loads the paper
	// plots.
	loads := []float64{8, 10}
	var specs []*scenario.Spec
	for _, load := range loads {
		for _, pol := range []Policy{Tiresias, PALPolicy} {
			specs = append(specs, synergySpec(scale, load, pol, "fifo", SynergyLacross, true))
		}
	}
	results, err := RunCells(scale.ctx(), "fig15", specs)
	if err != nil {
		return nil, fmt.Errorf("fig15: %w", err)
	}
	i := 0
	for _, load := range loads {
		for _, pol := range []Policy{Tiresias, PALPolicy} {
			res := results[i]
			i++
			deciles, err := InUseDeciles(res)
			if err != nil {
				return nil, fmt.Errorf("fig15 load %g %s: %w", load, pol, err)
			}
			row := []string{fmt.Sprintf("%gj/h", load), pol.String()}
			row = append(row, deciles...)
			row = append(row, Hours(res.Makespan))
			t.AddRow(row...)
		}
	}
	t.Note("paper: dip in utilization around mid-trace at 8j/h; saturation from early on at 10j/h; PAL frees resources earlier than Tiresias")
	return t, nil
}

// InUseDeciles averages a run's GPUs in use over ten equal slices of
// its span, one formatted mean per slice ("-" for an empty slice). The
// series is the gpus_in_use series of the run's metrics payload
// (synergySpec's recordUtil enables the collector), read through
// metrics.FromResult so live and store-loaded results agree. Sample
// times are rebuilt from the payload's time base by repeated addition
// of the round length, the engine clock's own arithmetic. Zero samples
// are idle-gap rounds with nothing active; the figure averages over
// rounds with work, so they are skipped. A run without the series, one
// whose ring dropped samples, or a ragged archived series is an error
// rather than a silently shorter series.
func InUseDeciles(res *sim.Result) ([]string, error) {
	p := metrics.FromResult(res)
	if p == nil {
		return nil, fmt.Errorf("experiments: no metrics payload to read GPUs in use from")
	}
	s, ok := p.SeriesByName(metrics.SeriesGPUsInUse)
	switch {
	case !ok:
		return nil, fmt.Errorf("experiments: metrics payload has no %s series", metrics.SeriesGPUsInUse)
	case s.Dropped > 0:
		return nil, fmt.Errorf("experiments: %s series dropped %d samples", metrics.SeriesGPUsInUse, s.Dropped)
	case len(s.Values) != len(s.Rounds):
		return nil, fmt.Errorf("experiments: %s series has %d values for %d rounds", metrics.SeriesGPUsInUse, len(s.Values), len(s.Rounds))
	}
	var times, inUse []float64
	now, round := p.TimeBase, int64(0)
	for i, r := range s.Rounds {
		for ; round < r; round++ {
			now += p.RoundSec
		}
		if s.Values[i] != 0 {
			times = append(times, now)
			inUse = append(inUse, s.Values[i])
		}
	}
	return decileMeans(times, inUse), nil
}

// decileMeans averages inUse over ten equal slices of the span its
// sample times cover.
func decileMeans(times, inUse []float64) []string {
	out := make([]string, 10)
	if len(times) == 0 {
		for i := range out {
			out[i] = "-"
		}
		return out
	}
	lo := times[0]
	span := times[len(times)-1] - lo
	if span <= 0 {
		span = 1
	}
	sums := make([]float64, 10)
	counts := make([]int, 10)
	for i, t := range times {
		d := int((t - lo) / span * 10)
		if d > 9 {
			d = 9
		}
		sums[d] += inUse[i]
		counts[d]++
	}
	for i := range out {
		if counts[i] == 0 {
			out[i] = "-"
			continue
		}
		out[i] = fmt.Sprintf("%.0f", sums[i]/float64(counts[i]))
	}
	return out
}

// Fig16and17 reproduces Figures 16 (LAS) and 17 (SRTF): Synergy average
// JCT vs job load under the two alternative schedulers.
func Fig16and17(scale Scale) (*Table, error) {
	t := &Table{
		Name:   "fig16_17",
		Title:  "Synergy avg JCT (hours) vs job load under LAS and SRTF schedulers",
		Header: []string{"sched", "policy"},
	}
	for _, load := range scale.SchedLoads {
		t.Header = append(t.Header, fmt.Sprintf("%gj/h", load))
	}
	for _, schedName := range []string{"las", "srtf"} {
		specs := make([]*scenario.Spec, 0, len(scale.SchedLoads)*len(AllPolicies()))
		for _, load := range scale.SchedLoads {
			for _, pol := range AllPolicies() {
				specs = append(specs, synergySpec(scale, load, pol, schedName, SynergyLacross, false))
			}
		}
		results, err := RunCells(scale.ctx(), "fig16_17/"+schedName, specs)
		if err != nil {
			return nil, fmt.Errorf("fig16/17 %s: %w", schedName, err)
		}
		avg := make(map[Policy][]float64)
		i := 0
		for range scale.SchedLoads {
			for _, pol := range AllPolicies() {
				avg[pol] = append(avg[pol], stats.Mean(results[i].JCTs()))
				i++
			}
		}
		for _, pol := range AllPolicies() {
			row := []string{schedName, pol.String()}
			for _, v := range avg[pol] {
				row = append(row, Hours(v))
			}
			t.AddRow(row...)
		}
		best := 0.0
		for i := range scale.SchedLoads {
			if imp := stats.Improvement(avg[Tiresias][i], avg[PALPolicy][i]); imp > best {
				best = imp
			}
		}
		t.Note("%s: max PAL improvement over Tiresias %s (paper: up to 15%% LAS, up to 10%% SRTF)", schedName, Pct(best))
	}
	return t, nil
}

// Fig19 reproduces Figure 19: Tiresias vs PAL wait-time patterns under
// LAS, SRTF and FIFO at 8 jobs/hour.
func Fig19(scale Scale) (*Table, error) {
	t := &Table{
		Name:   "fig19",
		Title:  "Tiresias vs PAL wait times by scheduler, Synergy 8 jobs/hour",
		Header: []string{"sched", "policy", "mean wait (h)", "p99 wait (h)", "max wait (h)"},
	}
	load := 8.0
	var specs []*scenario.Spec
	for _, schedName := range []string{"las", "srtf", "fifo"} {
		for _, pol := range []Policy{Tiresias, PALPolicy} {
			specs = append(specs, synergySpec(scale, load, pol, schedName, SynergyLacross, false))
		}
	}
	results, err := RunCells(scale.ctx(), "fig19", specs)
	if err != nil {
		return nil, fmt.Errorf("fig19: %w", err)
	}
	i := 0
	for _, schedName := range []string{"las", "srtf", "fifo"} {
		for _, pol := range []Policy{Tiresias, PALPolicy} {
			w := results[i].Waits()
			i++
			t.AddRow(schedName, pol.String(),
				Hours(stats.Mean(w)), Hours(stats.Percentile(w, 99)), Hours(stats.Max(w)))
		}
	}
	t.Note("paper: LAS has the largest wait magnitudes, FIFO the smallest; PAL reduces waits for long-queued jobs")
	return t, nil
}

// Fig20 reproduces Figure 20: Synergy average JCT at 10 jobs/hour as the
// constant locality penalty sweeps 1.0-1.7.
func Fig20(scale Scale) (*Table, error) {
	t := &Table{
		Name:   "fig20",
		Title:  "Synergy avg JCT (hours) vs locality penalty, FIFO, 10 jobs/hour",
		Header: []string{"policy"},
	}
	for _, pen := range scale.SynergyPenalties {
		t.Header = append(t.Header, fmt.Sprintf("C%.1f", pen))
	}
	specs := make([]*scenario.Spec, 0, len(scale.SynergyPenalties)*len(AllPolicies()))
	for _, pen := range scale.SynergyPenalties {
		for _, pol := range AllPolicies() {
			specs = append(specs, synergySpec(scale, 10, pol, "fifo", pen, false))
		}
	}
	results, err := RunCells(scale.ctx(), "fig20", specs)
	if err != nil {
		return nil, fmt.Errorf("fig20: %w", err)
	}
	avg := make(map[Policy][]float64)
	i := 0
	for range scale.SynergyPenalties {
		for _, pol := range AllPolicies() {
			avg[pol] = append(avg[pol], stats.Mean(results[i].JCTs()))
			i++
		}
	}
	for _, pol := range AllPolicies() {
		row := []string{pol.String()}
		for _, v := range avg[pol] {
			row = append(row, Hours(v))
		}
		t.AddRow(row...)
	}
	n := len(scale.SynergyPenalties)
	if n > 0 {
		t.Note("PAL vs Tiresias: %s at C%.1f -> %s at C%.1f (paper: 12%% -> 7%%)",
			Pct(stats.Improvement(avg[Tiresias][0], avg[PALPolicy][0])), scale.SynergyPenalties[0],
			Pct(stats.Improvement(avg[Tiresias][n-1], avg[PALPolicy][n-1])), scale.SynergyPenalties[n-1])
	}
	return t, nil
}
