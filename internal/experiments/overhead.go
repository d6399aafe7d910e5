package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig18 reproduces Figure 18: the distribution of PAL's per-epoch
// placement compute time for 64-, 128- and 256-GPU clusters. The paper
// reports a worst case of ~4 s and a median of ~2.8 s for 256 GPUs in its
// Python toolkit; our Go implementation is orders of magnitude faster, so
// the reproduced shape is "grows with cluster size, worst case at the
// first epoch, far below the 300 s epoch" rather than the absolute values.
func Fig18(scale Scale) (*Table, error) {
	t := &Table{
		Name:   "fig18",
		Title:  "PAL placement compute time per epoch (milliseconds)",
		Header: []string{"cluster size", "median", "p99", "max", "epochs"},
	}
	sizes := []int{64, 128, 256}
	// fig18 is the one experiment whose table varies run to run (and
	// with concurrent neighbors): its claim is a shape ("far below the
	// 300 s epoch"), not an absolute.
	results, err := runCells(scale.ctx(), "fig18", fig18Specs(scale, sizes), naiveStepping)
	if err != nil {
		return nil, fmt.Errorf("fig18: %w", err)
	}
	for i, size := range sizes {
		res := results[i]
		ms := make([]float64, len(res.PlaceTimes))
		for i, s := range res.PlaceTimes {
			ms[i] = s * 1000
		}
		t.AddRow(fmt.Sprintf("%d", size),
			fmt.Sprintf("%.3f", stats.Median(ms)),
			fmt.Sprintf("%.3f", stats.Percentile(ms, 99)),
			fmt.Sprintf("%.3f", stats.Max(ms)),
			fmt.Sprintf("%d", len(ms)))
	}
	t.Note("paper (Python/Blox): 256-GPU worst case 4 s, median 2.8 s, vs a 300 s epoch; shape check: time grows with cluster size and stays negligible vs the epoch")
	return t, nil
}

// naiveStepping makes a cell step every round: on the fast path PAL
// skips placement at fixpoints, which would silently turn fig18's "per
// epoch" into "per placement call". Being an alteration, it also keeps
// the cells uncached: PlaceTimes is a wall-clock measurement, so the
// result is not a pure function of the configuration and storing it
// under a content-addressed key would break the cache's contract.
func naiveStepping(_ *scenario.Built, cfg *sim.Config) {
	cfg.DisableFastForward = true
}

// fig18Specs builds one PAL/FIFO Synergy run per cluster size; Fig18
// runs them under naiveStepping.
func fig18Specs(scale Scale, sizes []int) []*scenario.Spec {
	specs := make([]*scenario.Spec, 0, len(sizes))
	for _, size := range sizes {
		// Scale the offered load with the cluster so each size runs at a
		// comparable utilization.
		load := 10.0 * float64(size) / 256.0
		w := scenario.WorkloadSpec{Source: "synergy", JobsPerHour: load, NumJobs: max(scale.SynergyNumJobs/4, 100)}
		specs = append(specs, cellSpec(size/GPUsPerNode, w, PALPolicy, "fifo", SynergyLacross, ExperimentSeed^uint64(size)))
	}
	return specs
}
