package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// Policy identifies one of the six placement configurations of §IV-A1.
type Policy int

// The placement policies compared throughout the evaluation.
const (
	RandomSticky Policy = iota
	RandomNonSticky
	Gandiva  // Packed-Non-Sticky
	Tiresias // Packed-Sticky (the best-performing baseline)
	PMFirst
	PALPolicy
	numPolicies
)

// AllPolicies lists the policies in the order the paper's figures use.
func AllPolicies() []Policy {
	return []Policy{RandomSticky, RandomNonSticky, Gandiva, Tiresias, PMFirst, PALPolicy}
}

// String returns the figure-legend name of the policy.
func (p Policy) String() string {
	switch p {
	case RandomSticky:
		return "Random-Sticky"
	case RandomNonSticky:
		return "Random-Non-Sticky"
	case Gandiva:
		return "Gandiva"
	case Tiresias:
		return "Tiresias"
	case PMFirst:
		return "PM-First"
	case PALPolicy:
		return "PAL"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// RegistryName returns the policy's name in the placement registry
// (internal/place), the vocabulary scenario specs and CLI flags use.
func (p Policy) RegistryName() string {
	switch p {
	case RandomSticky:
		return "random-sticky"
	case RandomNonSticky:
		return "random-non-sticky"
	case Gandiva:
		return "packed-non-sticky"
	case Tiresias:
		return "packed-sticky"
	case PMFirst:
		return "pm-first"
	case PALPolicy:
		return "pal"
	}
	panic(fmt.Sprintf("experiments: unknown policy %d", int(p)))
}

// seedXOR is what a figure cell XORs into its seed to seed its placer.
// The constants predate the placement registry and are load-bearing:
// they keep every recorded figure value stable. PAL and PM-First draw
// no random numbers and take the seed as is.
var seedXOR = [numPolicies]uint64{
	RandomSticky:    0xDEC0,
	RandomNonSticky: 0xDEC1,
	Gandiva:         0xDEC2,
	Tiresias:        0xDEC3,
}

// cellSpec returns one simulating figure cell as a scenario spec: pol
// under the named scheduler on a nodes x 4-GPU cluster with the
// default Longhorn profile, at constant inter-node penalty lacross,
// with the placer seeded seed ^ seedXOR[pol]. Callers add whatever else
// the figure varies (per-model penalties, a measure window, the
// GPUs-in-use series, a stale profile). The name holds the cell's
// coordinates and nothing of the figure asking, and the root seed is
// the default, so one configuration asked for by two figures keys
// identically and simulates once.
func cellSpec(nodes int, w scenario.WorkloadSpec, pol Policy, schedName string, lacross float64, seed uint64) *scenario.Spec {
	return &scenario.Spec{
		Name:     fmt.Sprintf("%s/%s L%g", pol, schedName, lacross),
		Cluster:  scenario.ClusterSpec{Nodes: nodes},
		Workload: w,
		Policy:   scenario.PolicySpec{Name: pol.RegistryName(), Seed: seed ^ seedXOR[pol]},
		Sched:    scenario.SchedSpec{Name: schedName},
		Locality: scenario.LocalitySpec{Lacross: lacross},
	}
}

// buildCell normalizes, validates and builds one figure cell.
func buildCell(spec *scenario.Spec) (*scenario.Built, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec.Build()
}

// sharedPool is the orchestrator every experiment routes its
// simulations through: GOMAXPROCS workers over a content-addressed
// result cache, so repeated configurations (the Sia baseline feeds
// Fig. 11, Fig. 12 and the headline metrics; Fig. 14 and Fig. 19 overlap
// at 8 jobs/hour) simulate once per process.
var sharedPool atomic.Pointer[runner.Pool]

func init() {
	sharedPool.Store(runner.NewPool(0, runner.NewResultCache(0)))
}

// Pool returns the shared runner pool the experiments execute on.
func Pool() *runner.Pool {
	return sharedPool.Load()
}

// SetPool replaces the shared pool (CLIs use it to honor a -workers
// flag or install a differently-sized cache) and returns the previous
// one. Passing nil restores the default configuration.
func SetPool(p *runner.Pool) *runner.Pool {
	if p == nil {
		p = runner.NewPool(0, runner.NewResultCache(0))
	}
	return sharedPool.Swap(p)
}

// runCells builds every figure cell and runs it through the shared
// pool, returning the results in spec order; it is the one way an
// experiment runs a simulation. label prefixes task names in errors and
// progress output; each task is further named by its trace, its cell
// coordinates (policy, scheduler, penalty) and its policy params. Every
// cell carries its own engine counters, which the pool hands its probe
// for the cells it executes.
//
// Each cell runs keyed by scenario.Built.Key, so a configuration two
// figures ask for simulates once — unless naive: then every round
// materializes (sim.Config.DisableFastForward) and the cells run
// uncached. fig18 is the one naive caller: its PlaceTimes are
// wall-clock, not a function of the key.
//
// A truncated run (MaxRounds hit) is promoted to an error: figure and
// table runners aggregate blindly, and partial metrics must never flow
// into a published table. The scenario sweep, which has a "truncated"
// column, is the surface that reports truncation as data.
func runCells(ctx context.Context, label string, specs []*scenario.Spec, naive bool) ([]*sim.Result, error) {
	sweep := runner.NewSweep(Pool())
	for _, spec := range specs {
		b, err := buildCell(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		ctrs := &sim.Counters{}
		b.Counters = ctrs
		cell := fmt.Sprintf("%s %s", b.Trace.Name, spec.Name)
		if p := spec.Policy.Params; p != nil {
			cell = fmt.Sprintf("%s %v", cell, p)
		}
		key := ""
		if !naive {
			key = b.Key()
		}
		sweep.AddTask(runner.Task{
			Key:   key,
			Label: fmt.Sprintf("%s: %s", label, cell),
			Run: func() (*sim.Result, error) {
				cfg, err := b.Config()
				if err != nil {
					return nil, err
				}
				cfg.DisableFastForward = naive
				res, err := sim.Run(cfg)
				if err == nil && res.Truncated {
					return nil, fmt.Errorf("%s: truncated at MaxRounds with %d unfinished jobs",
						cell, res.Unfinished)
				}
				return res, err
			},
			Counters: func() *sim.Counters { return ctrs },
		})
	}
	return sweep.Run(ctx)
}

// RunCells runs figure-cell specs through the shared pool and returns
// their results in spec order: the parallel, cached equivalent of
// building and running each spec in a loop. It normalizes the specs in
// place.
func RunCells(ctx context.Context, label string, specs []*scenario.Spec) ([]*sim.Result, error) {
	return runCells(ctx, label, specs, false)
}

// Scale controls experiment sizes so unit tests can exercise the full
// pipeline quickly while benches and the CLI run the paper-sized
// configuration.
type Scale struct {
	// SiaTraces lists the Sia-Philly workload indices to run (paper: 1-8).
	SiaTraces []int
	// SynergyNumJobs is the Synergy trace length (paper: enough to
	// measure jobs 2000-3000; we use 3200).
	SynergyNumJobs int
	// SynergyMeasureFirst/Last bound the steady-state window.
	SynergyMeasureFirst, SynergyMeasureLast int
	// SynergyLoads is the Fig. 14 job-load sweep (jobs/hour).
	SynergyLoads []float64
	// SchedLoads is the Figs. 16-17 load sweep.
	SchedLoads []float64
	// SiaPenalties is the Fig. 13 locality-penalty sweep.
	SiaPenalties []float64
	// SynergyPenalties is the Fig. 20 sweep.
	SynergyPenalties []float64

	// Ctx optionally carries cancellation through the experiment runners
	// into the pool (nil means context.Background()). It rides on Scale
	// because the registry's Runner signature predates the orchestration
	// layer and every experiment already threads a Scale.
	Ctx context.Context
}

// ctx returns the scale's context, defaulting to Background.
func (s Scale) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// FullScale is the paper-sized configuration.
func FullScale() Scale {
	return Scale{
		SiaTraces:           []int{1, 2, 3, 4, 5, 6, 7, 8},
		SynergyNumJobs:      3200,
		SynergyMeasureFirst: 2000,
		SynergyMeasureLast:  3000,
		SynergyLoads:        []float64{4, 6, 8, 10, 12, 14, 16, 18, 20},
		SchedLoads:          []float64{8, 10, 12, 14},
		SiaPenalties:        []float64{1.0, 1.5, 2.0, 2.5, 3.0},
		SynergyPenalties:    []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7},
	}
}

// QuickScale is a reduced configuration for unit/integration tests: same
// code paths, minutes-to-milliseconds smaller.
func QuickScale() Scale {
	return Scale{
		SiaTraces:           []int{1, 3, 5},
		SynergyNumJobs:      500,
		SynergyMeasureFirst: 200,
		SynergyMeasureLast:  400,
		SynergyLoads:        []float64{8, 12},
		SchedLoads:          []float64{8, 12},
		SiaPenalties:        []float64{1.0, 2.0, 3.0},
		SynergyPenalties:    []float64{1.1, 1.7},
	}
}

// Shared cluster / profile constants (Table I).
const (
	// SiaClusterNodes × GPUsPerNode = the 64-GPU Sia/testbed cluster.
	SiaClusterNodes = 16
	// SynergyClusterNodes × GPUsPerNode = the 256-GPU Synergy cluster.
	SynergyClusterNodes = 64
	// GPUsPerNode matches Frontera/Longhorn (4 GPUs per node).
	GPUsPerNode = 4
	// SynergyLacross is the constant penalty of the Synergy experiments
	// (the paper's initial Frontera estimate, §IV-D).
	SynergyLacross = 1.7
	// ProfileSeed seeds profile generation (a scenario spec's default);
	// ExperimentSeed seeds everything else.
	ProfileSeed    = scenario.DefaultProfileSeed
	ExperimentSeed = 0xE4B
)

// SiaTopology returns the 64-GPU topology (16 nodes × 4 GPUs).
func SiaTopology() cluster.Topology {
	return cluster.Topology{NumNodes: SiaClusterNodes, GPUsPerNode: GPUsPerNode}
}

// SynergyTopology returns the 256-GPU topology (64 nodes × 4 GPUs).
func SynergyTopology() cluster.Topology {
	return cluster.Topology{NumNodes: SynergyClusterNodes, GPUsPerNode: GPUsPerNode}
}

// LonghornProfile returns a Longhorn-style profile for an n-GPU simulated
// cluster, produced the way §IV-C describes: generate the full cluster's
// profile, then sample n GPUs without repetition. It is the profile a
// figure cell on an n-GPU cluster runs on (scenario.GeneratedProfile's
// memo).
func LonghornProfile(n int) *vprof.Profile {
	p, err := scenario.GeneratedProfile("longhorn", n, ProfileSeed)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return p
}

// TestbedProfile returns the 64-GPU Frontera testbed profile (Fig. 8).
func TestbedProfile() *vprof.Profile {
	p, err := scenario.GeneratedProfile("testbed", 64, scenario.DefaultTestbedSeed)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return p
}

// SiaTrace returns Sia-Philly workload idx at default parameters.
func SiaTrace(idx int) *trace.Trace {
	return trace.SiaPhilly(trace.DefaultSiaPhillyParams(), idx)
}

// SynergyTrace returns a Synergy trace at the given load with the scale's
// job count.
func SynergyTrace(load float64, numJobs int) *trace.Trace {
	params := trace.DefaultSynergyParams(load)
	params.NumJobs = numJobs
	return trace.Synergy(params)
}
