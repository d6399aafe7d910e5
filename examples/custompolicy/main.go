// Custom policy: the engine's Placer interface makes new placement
// policies pluggable. This example implements "Striped" placement — round
// robin across nodes, a strategy some clusters use to balance thermals —
// registers it in the shared placement registry (internal/place), and
// races it against PAL on the same trace, demonstrating how to slot a
// user-defined policy into the evaluation harness.
//
// Extension beyond the paper's figures: it adds a seventh policy to the
// six-way comparison of §IV-A1 (Figs. 11-20), on the Fig. 11 Sia-Philly
// setting. Once registered, a custom policy is also addressable by name
// from declarative scenario specs (internal/scenario) — data, not code,
// selects it.
//
//	go run ./examples/custompolicy
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// Striped allocates each job's GPUs round-robin across nodes, maximally
// spreading load (the opposite of packing). It implements sim.Placer.
type Striped struct {
	next int // rotating node cursor
}

// Name implements sim.Placer.
func (s *Striped) Name() string { return "striped" }

// Sticky implements sim.Placer.
func (s *Striped) Sticky() bool { return false }

// PlaceRound implements sim.Placer. It reads occupancy through the
// cluster's read-only View and marks the round's own picks in a local
// set: only the engine writes the cluster. Each job gets a fresh slice
// here, which is simplest, but not required — the engine copies every
// allocation it is handed, so a placer may as well return runs of one
// buffer it reuses, valid until its next PlaceRound. What a placer must
// not do is keep a job's PrevAlloc past the call: that array is engine
// storage a later round reuses.
func (s *Striped) PlaceRound(c *cluster.Cluster, need []*sim.Job, _ float64) map[int][]cluster.GPUID {
	v := c.View()
	per := v.GPUsPerNode()
	out := make(map[int][]cluster.GPUID, len(need))
	taken := make(map[cluster.GPUID]bool)
	for _, j := range need {
		alloc := make([]cluster.GPUID, 0, j.Spec.Demand)
		for len(alloc) < j.Spec.Demand {
			// Walk nodes from the cursor until an untaken free GPU turns up.
			for tries := 0; tries < v.NumNodes(); tries++ {
				node := (s.next + tries) % v.NumNodes()
				found := false
				for g := cluster.GPUID(node * per); g < cluster.GPUID((node+1)*per); g++ {
					if v.IsFree(g) && !taken[g] {
						alloc = append(alloc, g)
						taken[g] = true
						found = true
						break
					}
				}
				if found {
					s.next = (node + 1) % v.NumNodes()
					break
				}
			}
		}
		out[j.Spec.ID] = alloc
	}
	return out
}

func main() {
	// Register the custom policy so it is constructible by name — from
	// here, from CLI flags, and from scenario specs.
	place.Register("striped", func(place.BuildEnv) (sim.Placer, error) {
		return &Striped{}, nil
	})

	topo := cluster.Topology{NumNodes: 16, GPUsPerNode: 4}
	profile := vprof.GenerateLonghorn(topo.Size(), 7)
	binned := vprof.BinProfile(profile)

	params := trace.DefaultSiaPhillyParams()
	params.NumJobs = 80
	params.WindowHours = 4
	tr := trace.SiaPhilly(params, 2)

	run := func(p sim.Placer) float64 {
		res, err := sim.Run(sim.Config{
			Topology:    topo,
			Trace:       tr,
			Sched:       sched.FIFO{},
			Placer:      p,
			TrueProfile: profile,
			Lacross:     1.5,
		})
		if err != nil {
			log.Fatal(err)
		}
		return stats.Mean(res.JCTs())
	}

	striped, err := place.Build("striped", place.BuildEnv{})
	if err != nil {
		log.Fatal(err)
	}
	results := []struct {
		name string
		jct  float64
	}{
		{"Striped (custom)", run(striped)},
		{"Tiresias", run(place.NewPacked(true, 3))},
		{"PAL", run(core.NewPAL(binned, 1.5, nil))},
	}
	fmt.Println("80-job Sia-style trace, 64 GPUs, FIFO, L_across = 1.5")
	for _, r := range results {
		fmt.Printf("  %-18s avg JCT %7.1f s\n", r.name, r.jct)
	}
	fmt.Println("\nStriped maximizes spreading, paying the inter-node penalty on")
	fmt.Println("every multi-GPU job; PAL pays it only when the variability win")
	fmt.Println("is worth it. Implement sim.Placer to test your own policy.")
}
