// Synergy scenario: steady-state scheduling on a 256-GPU cluster with
// Poisson arrivals (Fig. 14's setting, reduced to a runnable size).
// Sweeps the job load and prints average JCT for Tiresias, PM-First and
// PAL, highlighting the multi-GPU subset where variability-awareness
// matters most.
//
//	go run ./examples/synergy -loads 6,10 -jobs 600
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func main() {
	loadsFlag := flag.String("loads", "6,10", "comma-separated job loads (jobs/hour)")
	numJobs := flag.Int("jobs", 600, "trace length in jobs")
	flag.Parse()

	var loads []float64
	for _, s := range strings.Split(*loadsFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			log.Fatalf("bad load %q: %v", s, err)
		}
		loads = append(loads, v)
	}

	policies := []experiments.Policy{
		experiments.Tiresias, experiments.PMFirst, experiments.PALPolicy,
	}
	fmt.Printf("Synergy steady state, 256 GPUs, FIFO, L_across = %.1f, %d jobs\n\n",
		experiments.SynergyLacross, *numJobs)
	fmt.Printf("%-8s  %-10s  %-12s  %-16s\n", "load", "policy", "avg JCT (h)", "multi-GPU JCT (h)")
	for _, load := range loads {
		for _, pol := range policies {
			// The trace is the generator's default Synergy trace at this
			// load; the measure window is the middle half of the jobs.
			spec := &scenario.Spec{
				Name:    fmt.Sprintf("synergy-%g %s", load, pol),
				Seed:    0xE6,
				Cluster: scenario.ClusterSpec{Nodes: experiments.SynergyClusterNodes},
				Workload: scenario.WorkloadSpec{
					Source: "synergy", JobsPerHour: load, NumJobs: *numJobs,
				},
				Policy:   scenario.PolicySpec{Name: pol.RegistryName()},
				Locality: scenario.LocalitySpec{Lacross: experiments.SynergyLacross},
				Engine: scenario.EngineSpec{
					MeasureFirst: *numJobs / 4,
					MeasureLast:  *numJobs * 3 / 4,
				},
			}
			spec.Normalize()
			if err := spec.Validate(); err != nil {
				log.Fatal(err)
			}
			built, err := spec.Build()
			if err != nil {
				log.Fatal(err)
			}
			res, err := built.Run()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8s  %-10s  %-12.1f  %-16.1f\n",
				fmt.Sprintf("%gj/h", load), pol.String(),
				stats.Mean(res.JCTs())/3600, stats.Mean(res.MultiGPUJCTs())/3600)
		}
		fmt.Println()
	}
	fmt.Println("multi-GPU jobs are bound by their slowest GPU (bulk-synchronous")
	fmt.Println("training), so variability-aware placement helps them the most.")
}
