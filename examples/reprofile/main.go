// Online re-profiling demo: the paper's §V-A post-mortem found that node
// 0's Class-A profile had gone stale (profiled scores ~8x lower than the
// penalties jobs experienced) and proposed "dynamic online updates to GPU
// PM-Scores". This example runs the same stale-profile scenario twice —
// once with the static profile, once with the OnlineScorer learning from
// per-rank step-time telemetry — and shows the learned scores converging
// to the truth.
//
// Extension beyond the paper's figures: it reproduces the *incident* of
// §V-A (Fig. 10's workload-1 outlier) and implements the online-update
// future work the section proposes, which the paper itself does not
// evaluate.
//
//	go run ./examples/reprofile
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vprof"
)

func main() {
	// A 64-GPU cluster whose node-0 Class-A profile understates reality
	// by 3x: the scheduler sees "view", jobs experience "truth".
	view := vprof.GenerateTestbed(7)
	truth, err := vprof.PerturbStaleGPUs(view, vprof.ClassA, []int{0, 1}, 1.0/3.0)
	if err != nil {
		panic(err)
	}
	binned := vprof.BinProfile(view)

	params := trace.DefaultSiaPhillyParams()
	params.NumJobs = 120
	tr := trace.SiaPhilly(params, 1)
	topo := cluster.Topology{NumNodes: 16, GPUsPerNode: 4}

	run := func(scorer vprof.BinnedScorer, obs sim.Observer) *sim.Result {
		res, err := sim.Run(sim.Config{
			Topology:    topo,
			Trace:       tr,
			Sched:       sched.LAS{},
			Placer:      core.NewPAL(scorer, 1.5, nil),
			TrueProfile: truth,
			Lacross:     1.5,
			Observer:    obs,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	staticRes := run(binned, nil)
	online := core.NewOnlineScorer(binned)
	onlineRes := run(online, online)

	fmt.Println("stale profile: GPUs 0-1 are secretly 3x slower for Class A")
	fmt.Printf("  static profile:      avg JCT %7.1f s\n", stats.Mean(staticRes.JCTs()))
	fmt.Printf("  online re-profiling: avg JCT %7.1f s (%s)\n",
		stats.Mean(onlineRes.JCTs()),
		pct(stats.Improvement(stats.Mean(staticRes.JCTs()), stats.Mean(onlineRes.JCTs()))))

	fmt.Println("\nlearned Class-A scores after the run:")
	for g := 0; g < 4; g++ {
		fmt.Printf("  gpu %d: profiled %.2f  learned %.2f  truth %.2f  (%d samples)\n",
			g, binned.Score(vprof.ClassA, g), online.Score(vprof.ClassA, g),
			truth.Score(vprof.ClassA, g), online.Samples(vprof.ClassA, g))
	}
	fmt.Println("\nthe OnlineScorer only overrides the profile when observations")
	fmt.Println("diverge grossly (>1.5x), so measurement noise cannot churn placements.")
}

func pct(frac float64) string { return fmt.Sprintf("%+.1f%%", frac*100) }
