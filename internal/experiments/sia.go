package experiments

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vprof"
)

// SiaRun bundles the per-policy results of one Sia-Philly workload.
type SiaRun struct {
	WorkloadIdx int
	Results     map[Policy]*sim.Result
}

// SiaBaselineSpecs enumerates §V-B's baseline grid — every Sia-Philly
// workload of the scale × every placement policy, FIFO scheduling,
// 64-GPU cluster, Longhorn profile, per-model locality penalties — in
// workload-major order. The specs feed the runner pool; the benchmark
// harness also uses them to measure sequential-vs-parallel wall clock.
func SiaBaselineSpecs(scale Scale) []*scenario.Spec {
	specs := make([]*scenario.Spec, 0, len(scale.SiaTraces)*int(numPolicies))
	for _, idx := range scale.SiaTraces {
		for _, pol := range AllPolicies() {
			specs = append(specs, siaSpec(idx, pol, "fifo"))
		}
	}
	return specs
}

// siaSpec returns the Sia baseline cell of workload idx for pol under
// the named scheduler: the 64-GPU cluster with per-model locality
// penalties, seeded per workload.
func siaSpec(idx int, pol Policy, schedName string) *scenario.Spec {
	// 1.5 is the fallback for models missing from the per-model table.
	spec := cellSpec(SiaClusterNodes, siaWorkload(idx), pol, schedName, 1.5, ExperimentSeed^uint64(idx))
	spec.Locality.PerModel = true
	return spec
}

// siaWorkload selects Sia-Philly workload idx at default parameters
// (SiaTrace's trace).
func siaWorkload(idx int) scenario.WorkloadSpec {
	return scenario.WorkloadSpec{Source: "sia-philly", Workload: idx}
}

// RunSiaBaseline simulates the baseline grid through the runner pool.
// Results are memoized in the pool's content-addressed cache — keyed on
// the full run configuration (trace, profile, penalties, seed), not a
// name string, so a changed scale or penalty can never alias a previous
// entry — which keeps the repeated consumers (Fig. 11, Fig. 12, the
// headline metrics) at one simulation per configuration.
func RunSiaBaseline(scale Scale) ([]SiaRun, error) {
	results, err := RunCells(scale.ctx(), "sia-baseline", SiaBaselineSpecs(scale))
	if err != nil {
		return nil, fmt.Errorf("sia baseline: %w", err)
	}
	runs := make([]SiaRun, 0, len(scale.SiaTraces))
	i := 0
	for _, idx := range scale.SiaTraces {
		run := SiaRun{WorkloadIdx: idx, Results: make(map[Policy]*sim.Result, numPolicies)}
		for _, pol := range AllPolicies() {
			run.Results[pol] = results[i]
			i++
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// Fig11 reproduces Figure 11: average JCT per Sia-Philly workload for
// every placement policy, normalized to Tiresias (Packed-Sticky), under
// FIFO scheduling, plus the geomean column.
func Fig11(scale Scale) (*Table, error) {
	runs, err := RunSiaBaseline(scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:   "fig11",
		Title:  "Avg JCT normalized to Tiresias, Sia-Philly workloads, 64 GPUs, FIFO",
		Header: append([]string{"policy"}, workloadCols(runs)...),
	}
	perPolicy := make(map[Policy][]float64) // normalized JCTs across workloads
	for _, pol := range AllPolicies() {
		row := []string{pol.String()}
		for _, run := range runs {
			base := stats.Mean(run.Results[Tiresias].JCTs())
			ours := stats.Mean(run.Results[pol].JCTs())
			norm := ours / base
			perPolicy[pol] = append(perPolicy[pol], norm)
			row = append(row, fmt.Sprintf("%.3f", norm))
		}
		row = append(row, fmt.Sprintf("%.3f", stats.GeoMean(perPolicy[pol])))
		t.AddRow(row...)
	}
	palGeo := stats.GeoMean(perPolicy[PALPolicy])
	pmfGeo := stats.GeoMean(perPolicy[PMFirst])
	t.Note("geomean avg-JCT improvement vs Tiresias: PM-First %s, PAL %s (paper: ~40%%, ~42-43%%)",
		Pct(1-pmfGeo), Pct(1-palGeo))
	// Per-job paired bootstrap on the first workload quantifies how much
	// of the improvement claim is trace luck.
	if len(runs) > 0 {
		base := runs[0].Results[Tiresias].JCTs()
		ours := runs[0].Results[PALPolicy].JCTs()
		ci := stats.BootstrapImprovementCI(base, ours, 1000, 0.95, ExperimentSeed)
		t.Note("w%d PAL improvement 95%% bootstrap CI: [%s, %s]",
			runs[0].WorkloadIdx, Pct(ci.Low), Pct(ci.High))
	}
	// Per-class breakdown validates the mechanism: variability-sensitive
	// Class A should benefit the most from PAL's class-priority
	// placement; near-flat Class C benefits mostly via queue drainage.
	for class := vprof.Class(0); class < vprof.NumClasses; class++ {
		var imps []float64
		for _, run := range runs {
			base := classJCTs(run.Results[Tiresias], class)
			ours := classJCTs(run.Results[PALPolicy], class)
			if b, o := stats.Mean(base), stats.Mean(ours); b > 0 && o > 0 {
				imps = append(imps, o/b)
			}
		}
		t.Note("class %s geomean PAL improvement: %s", class, Pct(1-stats.GeoMean(imps)))
	}
	return t, nil
}

// classJCTs extracts the measured JCTs of one variability class.
func classJCTs(res *sim.Result, class vprof.Class) []float64 {
	var out []float64
	for _, j := range res.Measured {
		if j.Spec.Class == class {
			out = append(out, j.JCT())
		}
	}
	return out
}

func workloadCols(runs []SiaRun) []string {
	cols := make([]string, 0, len(runs)+1)
	for _, r := range runs {
		cols = append(cols, fmt.Sprintf("w%d", r.WorkloadIdx))
	}
	return append(cols, "geomean")
}

// Fig12 reproduces Figure 12: per-job wait times under Tiresias, PM-First
// and PAL for workloads 3 and 5 (the best- and worst-improvement traces).
// The table reports the summary statistics plus a down-sampled job-ID
// series mirroring the scatter plot.
func Fig12(scale Scale) (*Table, error) {
	runs, err := RunSiaBaseline(scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:   "fig12",
		Title:  "Wait time vs job ID, Sia-Philly workloads 3 and 5, FIFO",
		Header: []string{"workload", "policy", "mean wait (h)", "p99 wait (h)", "max wait (h)"},
	}
	for _, run := range runs {
		if run.WorkloadIdx != 3 && run.WorkloadIdx != 5 {
			continue
		}
		for _, pol := range []Policy{Tiresias, PMFirst, PALPolicy} {
			waits := run.Results[pol].Waits()
			t.AddRow(
				fmt.Sprintf("w%d", run.WorkloadIdx),
				pol.String(),
				Hours(stats.Mean(waits)),
				Hours(stats.Percentile(waits, 99)),
				Hours(stats.Max(waits)),
			)
		}
	}
	// Down-sampled series: wait of every 20th job under Tiresias vs PAL,
	// workload 5 (the paper's blocking-job narrative).
	for _, run := range runs {
		if run.WorkloadIdx != 5 {
			continue
		}
		tw := run.Results[Tiresias].Waits()
		pw := run.Results[PALPolicy].Waits()
		n := len(tw)
		if len(pw) < n {
			n = len(pw)
		}
		for i := 0; i < n; i += 20 {
			t.Note("w5 job %3d: wait tiresias=%sh pal=%sh", i, Hours(tw[i]), Hours(pw[i]))
		}
	}
	t.Note("paper: w5 (early 48-GPU job) has much longer waits than w3; PAL/PM-First drain the queue faster")
	return t, nil
}

// Fig13 reproduces Figure 13: Sia-Philly average JCT as the constant
// inter-node locality penalty sweeps from 1.0 to 3.0. Packing policies
// close on PM-First as the penalty grows; PAL stays ahead.
func Fig13(scale Scale) (*Table, error) {
	t := &Table{
		Name:   "fig13",
		Title:  "Sia avg JCT (hours) vs inter-node locality penalty, FIFO",
		Header: []string{"policy"},
	}
	for _, pen := range scale.SiaPenalties {
		t.Header = append(t.Header, fmt.Sprintf("C%.1f", pen))
	}
	// Enumerate the penalty × policy × workload grid through the pool;
	// the trailing per-trace dimension averages into one point per
	// (penalty, policy) cell.
	specs := make([]*scenario.Spec, 0, len(scale.SiaPenalties)*len(AllPolicies())*len(scale.SiaTraces))
	for _, pen := range scale.SiaPenalties {
		for _, pol := range AllPolicies() {
			for _, idx := range scale.SiaTraces {
				// One independent stream per (workload, penalty) cell,
				// shared across policies so comparisons stay paired. The
				// textual key avoids the collisions of ad-hoc integer
				// mixing (uint64(pen*100) conflated close penalties).
				seed := runner.DeriveSeed(ExperimentSeed, fmt.Sprintf("fig13|w%d|pen%g", idx, pen))
				specs = append(specs, cellSpec(SiaClusterNodes, siaWorkload(idx), pol, "fifo", pen, seed))
			}
		}
	}
	results, err := RunCells(scale.ctx(), "fig13", specs)
	if err != nil {
		return nil, fmt.Errorf("fig13: %w", err)
	}
	perPolicy := make(map[Policy][]float64)
	i := 0
	for range scale.SiaPenalties {
		for _, pol := range AllPolicies() {
			var jcts []float64
			for range scale.SiaTraces {
				jcts = append(jcts, stats.Mean(results[i].JCTs()))
				i++
			}
			perPolicy[pol] = append(perPolicy[pol], stats.Mean(jcts))
		}
	}
	for _, pol := range AllPolicies() {
		row := []string{pol.String()}
		for _, v := range perPolicy[pol] {
			row = append(row, Hours(v))
		}
		t.AddRow(row...)
	}
	if n := len(scale.SiaPenalties); n > 0 {
		lo, hi := 0, n-1
		pmLo := stats.Improvement(perPolicy[Tiresias][lo], perPolicy[PMFirst][lo])
		pmHi := stats.Improvement(perPolicy[Tiresias][hi], perPolicy[PMFirst][hi])
		palLo := stats.Improvement(perPolicy[Tiresias][lo], perPolicy[PALPolicy][lo])
		palHi := stats.Improvement(perPolicy[Tiresias][hi], perPolicy[PALPolicy][hi])
		t.Note("PM-First vs Tiresias: %s at C%.1f -> %s at C%.1f (paper: 30%% -> 9%%)",
			Pct(pmLo), scale.SiaPenalties[lo], Pct(pmHi), scale.SiaPenalties[hi])
		t.Note("PAL vs Tiresias: %s -> %s (paper: 30%% -> 20%%)", Pct(palLo), Pct(palHi))
	}
	return t, nil
}

// Headline reproduces the abstract's aggregate claims over the Sia
// workloads: geomean improvements of PM-First and PAL over Tiresias in
// average JCT, 99th-percentile JCT, makespan and cluster utilization.
func Headline(scale Scale) (*Table, error) {
	runs, err := RunSiaBaseline(scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:   "headline",
		Title:  "Geomean improvements over Tiresias across Sia-Philly workloads",
		Header: []string{"metric", "PM-First", "PAL", "paper PM-First", "paper PAL"},
	}
	type metric struct {
		name         string
		value        func(*sim.Result) float64
		higherIsGood bool
		paperPM      string
		paperPAL     string
	}
	metrics := []metric{
		{"avg JCT", func(r *sim.Result) float64 { return stats.Mean(r.JCTs()) }, false, "+40%", "+42%"},
		{"p99 JCT", func(r *sim.Result) float64 { return stats.Percentile(r.JCTs(), 99) }, false, "+40%", "+41%"},
		{"makespan", func(r *sim.Result) float64 { return r.Makespan }, false, "+44%", "+47%"},
		{"utilization (productive)", func(r *sim.Result) float64 { return r.ProductiveUtilization }, true, "+26%", "+28%"},
		{"utilization (allocated)", func(r *sim.Result) float64 { return r.Utilization }, true, "", ""},
	}
	for _, m := range metrics {
		row := []string{m.name}
		for _, pol := range []Policy{PMFirst, PALPolicy} {
			var ratios []float64
			for _, run := range runs {
				base := m.value(run.Results[Tiresias])
				ours := m.value(run.Results[pol])
				if base <= 0 || ours <= 0 {
					continue
				}
				ratios = append(ratios, ours/base)
			}
			geo := stats.GeoMean(ratios)
			var imp float64
			if m.higherIsGood {
				imp = geo - 1
			} else {
				imp = 1 - geo
			}
			row = append(row, Pct(imp))
		}
		row = append(row, m.paperPM, m.paperPAL)
		t.AddRow(row...)
	}
	return t, nil
}
