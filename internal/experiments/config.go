package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sched"
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

// binMemo memoizes the K-Means binning per profile: silhouette K
// selection is O(n²) per class and every policy run over the same profile
// would otherwise repeat it. The single-flight Memo (unlike the old
// sync.Map) also guarantees concurrent runs over one profile bin it
// exactly once.
var binMemo runner.Memo[*vprof.Profile, *vprof.Binned]

// binned returns the (cached) binned view of a profile. The returned
// Binned is shared and read-only.
func binned(p *vprof.Profile) *vprof.Binned {
	return binMemo.Get(p, func() *vprof.Binned { return vprof.BinProfile(p) })
}

// RunSpec assembles one simulation of the evaluation.
type RunSpec struct {
	Trace  *trace.Trace
	Topo   cluster.Topology
	Sched  sim.Scheduler
	Policy Policy

	// Profile is the variability the jobs actually experience.
	Profile *vprof.Profile
	// ProfiledView is what PM-First/PAL consult; nil means Profile
	// (fresh, accurate profiling). The testbed experiment passes a stale
	// view here.
	ProfiledView *vprof.Profile

	// Lacross is the constant inter-node penalty; ModelLacross overrides
	// it per model when non-nil.
	Lacross      float64
	ModelLacross map[string]float64

	// Seed feeds the Random placers.
	Seed uint64

	MeasureFirst, MeasureLast int
	// RecordUtil attaches a metrics collector restricted to the
	// gpus_in_use series (Fig. 15); InUseDeciles reads it back.
	RecordUtil bool

	// Counters, when non-nil, receives the engine's introspection
	// counters (sim.Config.Counters). It is an observation-only
	// out-param, deliberately excluded from Key(): counter values are
	// regime-dependent wall-clock-class data that never influence the
	// Result, so a counter-bearing spec must share its cache entry with
	// a bare one.
	Counters *sim.Counters

	// DisableFastForward runs the engine's naive reference loop
	// (sim.Config.DisableFastForward): every phase, every round. Like
	// Counters it is excluded from Key(): every stepping regime produces
	// the same Result, so only the wall-clock PlaceTimes — how many
	// rounds call the placer — can tell the two apart. Fig. 18 sets it so
	// its per-epoch timings cover every round that placed a job.
	DisableFastForward bool
}

// DefaultMigrationPenaltySec is the checkpoint/restore cost charged per
// migration (§IV-A1: small relative to job runtimes — 10 s against
// multi-hour jobs, ~3% of a round worst case — but enough that gratuitous non-sticky reshuffling is
// not free).
const DefaultMigrationPenaltySec = 10

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

// policySeed derives the per-policy RNG seed. The XOR constants predate
// the registry and are load-bearing: they keep every recorded
// experiment value and every content-addressed cache key stable.
func policySeed(p Policy, seed uint64) uint64 {
	switch p {
	case RandomSticky:
		return seed ^ 0xDEC0
	case RandomNonSticky:
		return seed ^ 0xDEC1
	case Gandiva:
		return seed ^ 0xDEC2
	case Tiresias:
		return seed ^ 0xDEC3
	}
	return seed
}

// buildPlacer constructs the placement policy of the spec through the
// shared placement registry, so the experiments layer exercises exactly
// the construction path scenario specs use.
func buildPlacer(spec RunSpec) sim.Placer {
	view := spec.ProfiledView
	if view == nil {
		view = spec.Profile
	}
	placer, err := place.Build(spec.Policy.RegistryName(), place.BuildEnv{
		Scores:       binned(view),
		Lacross:      spec.Lacross,
		ModelLacross: spec.ModelLacross,
		Seed:         policySeed(spec.Policy, spec.Seed),
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return placer
}

// Run executes one simulation.
func Run(spec RunSpec) (*sim.Result, error) {
	var sink sim.MetricsSink
	if spec.RecordUtil {
		sink = metrics.MustCollector(metrics.Config{Series: []string{metrics.SeriesGPUsInUse}})
	}
	return sim.Run(sim.Config{
		Topology:            spec.Topo,
		Trace:               spec.Trace,
		Sched:               spec.Sched,
		Placer:              buildPlacer(spec),
		TrueProfile:         spec.Profile,
		Lacross:             spec.Lacross,
		ModelLacross:        spec.ModelLacross,
		MeasureFirst:        spec.MeasureFirst,
		MeasureLast:         spec.MeasureLast,
		MigrationPenaltySec: DefaultMigrationPenaltySec,
		Metrics:             sink,
		Counters:            spec.Counters,
		DisableFastForward:  spec.DisableFastForward,
	})
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

// label renders the cell coordinates a human needs to locate a failing
// run: workload, policy, scheduler, penalty.
func (s RunSpec) label() string {
	traceName, schedName := "?", "?"
	if s.Trace != nil {
		traceName = s.Trace.Name
	}
	if s.Sched != nil {
		schedName = s.Sched.Name()
	}
	return fmt.Sprintf("%s %s/%s L%g", traceName, s.Policy, schedName, s.Lacross)
}

// runSpecs builds and runs one sweep over the specs, optionally keyed
// for the content-addressed cache. A truncated run (MaxRounds hit) is
// promoted to an error here: figure/table runners aggregate blindly,
// and partial metrics must never flow into a published table — the
// scenario layer, which has a "truncated" column, is the surface that
// reports truncation as data.
func runSpecs(ctx context.Context, label string, specs []RunSpec, cached bool) ([]*sim.Result, error) {
	sweep := runner.NewSweep(Pool())
	for _, spec := range specs {
		spec := spec
		key := ""
		if cached {
			key = spec.Key()
		}
		cell := spec.label()
		sweep.Add(key, fmt.Sprintf("%s: %s", label, cell),
			func() (*sim.Result, error) {
				res, err := Run(spec)
				if err == nil && res.Truncated {
					return nil, fmt.Errorf("%s: truncated at MaxRounds with %d unfinished jobs",
						cell, res.Unfinished)
				}
				return res, err
			})
	}
	return sweep.Run(ctx)
}

// RunAll executes the specs through the shared pool and returns their
// results in submission order — the parallel, cached equivalent of
// calling Run in a loop. label prefixes task names in errors and
// progress output; each task is further identified by its cell
// coordinates (trace, policy, scheduler, penalty).
func RunAll(ctx context.Context, label string, specs []RunSpec) ([]*sim.Result, error) {
	return runSpecs(ctx, label, specs, true)
}

// RunAllUncached is RunAll without result caching, for runs whose
// results are not pure functions of their configuration (fig18's
// wall-clock placement timings).
func RunAllUncached(ctx context.Context, label string, specs []RunSpec) ([]*sim.Result, error) {
	return runSpecs(ctx, label, specs, false)
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
	// ProfileSeed seeds profile generation; ExperimentSeed seeds
	// everything else.
	ProfileSeed    = 0x9A1
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

// profileMemo memoizes the sampled per-cluster-size profiles (the key
// space is bounded: one entry per generator × cluster size).
var profileMemo runner.Memo[string, *vprof.Profile]

// LonghornProfile returns a Longhorn-style profile for an n-GPU simulated
// cluster, produced the way §IV-C describes: generate the full cluster's
// profile, then sample n GPUs without repetition.
func LonghornProfile(n int) *vprof.Profile {
	key := fmt.Sprintf("longhorn-%d", n)
	return profileMemo.Get(key, func() *vprof.Profile {
		full := vprof.GenerateLonghorn(416, ProfileSeed) // 8 cabinets × 13 nodes × 4 GPUs
		perm := rng.New(ProfileSeed).Split(uint64(n)).Perm(full.NumGPUs())
		p, err := full.Subsample(key, perm, n)
		if err != nil {
			panic(err)
		}
		return p
	})
}

// TestbedProfile returns the 64-GPU Frontera testbed profile (Fig. 8).
func TestbedProfile() *vprof.Profile {
	return profileMemo.Get("testbed-64", func() *vprof.Profile {
		return vprof.GenerateTestbed(ProfileSeed + 7)
	})
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

// FIFOSched, LASSched and SRTFSched are the shared scheduler instances.
var (
	FIFOSched = sched.FIFO{}
	LASSched  = sched.LAS{}
	SRTFSched = sched.SRTF{}
)
