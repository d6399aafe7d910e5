// Package repro's root-level benchmark harness regenerates every table
// and figure of the paper's evaluation (§V). Each BenchmarkFigXX /
// BenchmarkTableXX target runs the corresponding experiment at the
// paper-sized FullScale configuration and prints the regenerated rows, so
//
//	go test -bench=BenchmarkFig11 -benchtime=1x
//
// reproduces Figure 11, and
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation (several minutes on one core; see
// EXPERIMENTS.md for recorded paper-vs-measured values). Set
// REPRO_SCALE=quick to exercise every harness at test scale instead.
//
// Micro-benchmarks for the core allocation paths (PM-First, PAL, the
// binning pipeline) follow the figure benches; Figure 18's placement-
// overhead claim is backed by BenchmarkFig18Overhead.
package repro

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kmeans"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// benchScale selects the experiment scale (full by default).
func benchScale() experiments.Scale {
	if os.Getenv("REPRO_SCALE") == "quick" {
		return experiments.QuickScale()
	}
	return experiments.FullScale()
}

// printed dedups table output across bench reruns (go test re-invokes
// benchmarks with growing b.N; the table only needs to appear once).
var printed = map[string]bool{}

// benchExperiment regenerates one experiment per iteration on the
// shared process pool. Like the seed's sync.Map caches before it, the
// pool's result cache persists across iterations and bench targets, so
// with -benchtime above 1x the later iterations measure the warm
// (cache-hit) path; the documented -benchtime=1x invocation measures a
// cold regeneration, modulo results shared with previously-run targets
// (fig19 reuses fig14/fig16_17 cells). The BenchmarkRunner* targets
// below measure the orchestration itself with fresh pools.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		table, err := experiments.RunByName(name, scale)
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		if !printed[name] {
			printed[name] = true
			fmt.Printf("\n%s\n", table.String())
		}
	}
}

// --- Orchestration-layer benchmarks (internal/runner) ---
//
// The figure benches above already execute through the shared pool; the
// benchmarks below isolate the orchestration itself on a fixed spec
// list (the Sia baseline grid at the bench scale) and report the
// parallel-vs-sequential speedup. Every pass uses a fresh pool and a
// fresh cache, so the parallel pass cannot replay the sequential
// pass's results.

// runSpecList executes the spec list on a fresh pool and returns the
// wall-clock duration.
func runSpecList(b *testing.B, specs []*scenario.Spec, workers int) time.Duration {
	b.Helper()
	prev := experiments.SetPool(runner.NewPool(workers, runner.NewResultCache(0)))
	defer experiments.SetPool(prev)
	start := time.Now()
	results, err := experiments.RunCells(context.Background(), "bench", specs)
	if err != nil {
		b.Fatal(err)
	}
	if len(results) != len(specs) {
		b.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	return time.Since(start)
}

// benchSpecs returns the fixed grid the runner benchmarks sweep, with
// the process-global profile/binning memos pre-warmed: the one-time
// silhouette K-Means construction would otherwise bill itself to
// whichever pass ran first and skew the sequential-vs-parallel ratio.
// The quick scale keeps -benchtime=1x runs snappy; REPRO_SCALE=full
// uses the paper-sized workload list.
func benchSpecs(b *testing.B) []*scenario.Spec {
	b.Helper()
	specs := experiments.SiaBaselineSpecs(benchScale())
	// Running the first cell once builds the profile and its binning.
	if _, err := experiments.RunCells(context.Background(), "bench warm-up", specs[:1]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return specs
}

func BenchmarkRunnerSequential(b *testing.B) {
	specs := benchSpecs(b)
	for i := 0; i < b.N; i++ {
		runSpecList(b, specs, 1)
	}
}

func BenchmarkRunnerParallel(b *testing.B) {
	specs := benchSpecs(b)
	for i := 0; i < b.N; i++ {
		runSpecList(b, specs, 0) // GOMAXPROCS workers
	}
}

// BenchmarkRunnerSpeedup runs both configurations back to back and
// reports the ratio, so one -bench=RunnerSpeedup -benchtime=1x
// invocation answers "what does the worker pool buy on this machine".
func BenchmarkRunnerSpeedup(b *testing.B) {
	specs := benchSpecs(b)
	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		seq := runSpecList(b, specs, 1)
		par := runSpecList(b, specs, workers)
		b.ReportMetric(seq.Seconds(), "sequential-s")
		b.ReportMetric(par.Seconds(), "parallel-s")
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup")
		b.ReportMetric(float64(workers), "workers")
	}
}

// --- One benchmark per table/figure of the evaluation section ---

func BenchmarkFig03Classifier(b *testing.B)     { benchExperiment(b, "fig03") }
func BenchmarkFig05Clustering(b *testing.B)     { benchExperiment(b, "fig05") }
func BenchmarkFig06_07Profiles(b *testing.B)    { benchExperiment(b, "fig06_08") }
func BenchmarkFig08TestbedProfile(b *testing.B) { benchExperiment(b, "fig06_08") }
func BenchmarkFig09TestbedCDF(b *testing.B)     { benchExperiment(b, "fig09") }
func BenchmarkFig10TestbedBoxplot(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkTable04Testbed(b *testing.B)      { benchExperiment(b, "table04") }
func BenchmarkFig11SiaJCT(b *testing.B)         { benchExperiment(b, "fig11") }
func BenchmarkFig12WaitTimes(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13LocalitySweep(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14SynergyLoad(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15Utilization(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16_17Schedulers(b *testing.B)  { benchExperiment(b, "fig16_17") }
func BenchmarkFig18Overhead(b *testing.B)       { benchExperiment(b, "fig18") }
func BenchmarkFig19WaitBySched(b *testing.B)    { benchExperiment(b, "fig19") }
func BenchmarkFig20SynergyLocality(b *testing.B) {
	benchExperiment(b, "fig20")
}
func BenchmarkHeadline(b *testing.B) { benchExperiment(b, "headline") }

// --- Ablations and extensions (DESIGN.md §2) ---

func BenchmarkAblationK(b *testing.B)          { benchExperiment(b, "ablation_k") }
func BenchmarkAblationPriority(b *testing.B)   { benchExperiment(b, "ablation_priority") }
func BenchmarkAblationHysteresis(b *testing.B) { benchExperiment(b, "ablation_hysteresis") }
func BenchmarkAblationOnline(b *testing.B)     { benchExperiment(b, "ablation_online") }
func BenchmarkAblationRack(b *testing.B)       { benchExperiment(b, "ablation_rack") }

// --- Micro-benchmarks of the core allocation paths ---

// placementBench measures one PlaceRound of the given policy on a 256-GPU
// cluster with a realistic mixed batch (the per-epoch cost Fig. 18
// characterizes).
func placementBench(b *testing.B, mk func(*vprof.Binned) sim.Placer) {
	b.Helper()
	topo := cluster.Topology{NumNodes: 64, GPUsPerNode: 4}
	profile := vprof.GenerateLonghorn(topo.Size(), 1)
	binned := vprof.BinProfile(profile)
	placer := mk(binned)
	c := cluster.New(topo)
	var jobs []*sim.Job
	demands := []int{1, 1, 1, 1, 2, 4, 1, 1, 8, 1, 2, 1, 1, 4, 1, 16}
	id := 0
	used := 0
	for used+demands[id%len(demands)] <= topo.Size() {
		d := demands[id%len(demands)]
		jobs = append(jobs, &sim.Job{
			Spec: trace.JobSpec{ID: id, Demand: d, Class: vprof.Class(id % 3), Work: 1000},
		})
		used += d
		id++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := placer.PlaceRound(c, jobs, 0)
		if len(out) != len(jobs) {
			b.Fatal("placement failed")
		}
	}
}

func BenchmarkPMFirstPlaceRound256(b *testing.B) {
	placementBench(b, func(v *vprof.Binned) sim.Placer { return core.NewPMFirst(v) })
}

func BenchmarkPALPlaceRound256(b *testing.B) {
	placementBench(b, func(v *vprof.Binned) sim.Placer { return core.NewPAL(v, 1.7, nil) })
}

func BenchmarkBinningPipeline256(b *testing.B) {
	profile := vprof.GenerateLonghorn(256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vprof.BinProfile(profile)
	}
}

func BenchmarkSilhouetteSelectK(b *testing.B) {
	profile := vprof.GenerateLonghorn(256, 1)
	scores := profile.ClassScores(vprof.ClassA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kmeans.SelectK(scores)
	}
}

func BenchmarkSiaSimulationPAL(b *testing.B) {
	// End-to-end cost of one 160-job / 64-GPU simulation under PAL.
	spec := &scenario.Spec{
		Name:     "sia-1 pal",
		Workload: scenario.WorkloadSpec{Source: "sia-philly", Workload: 1},
		Policy:   scenario.PolicySpec{Name: "pal"},
	}
	spec.Normalize()
	built, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := built.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
