package scenario

import (
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/cluster"
	// Imported for its init side effect: core registers "pm-first" and
	// "pal" in the placement registry, and scenario specs must resolve
	// those names even in binaries that use no other part of core.
	_ "repro/internal/core"
	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// DefaultProfileSeed seeds the longhorn and frontera profile sources
// when a spec names no seed, and DefaultTestbedSeed the testbed source:
// the seeds the paper figures' profiles were generated with, so a
// scenario on a same-sized cluster experiences the exact per-GPU scores
// the figures ran on, and the testbed source reproduces Fig. 8.
const (
	DefaultProfileSeed = 0x9A1
	DefaultTestbedSeed = DefaultProfileSeed + 7
)

// DefaultMigrationPenaltySec is the checkpoint/restore cost charged per
// migration when a spec leaves engine.migration_penalty_sec at 0
// (§IV-A1: small relative to job runtimes — 10 s against multi-hour
// jobs, ~3% of a round worst case — but enough that gratuitous
// non-sticky reshuffling is not free).
const DefaultMigrationPenaltySec = 10

// fullClusterGPUs is the size of the full generated cluster that
// longhorn/frontera scenario profiles are sampled from (8 cabinets × 13
// nodes × 4 GPUs, the paper's Longhorn shape).
const fullClusterGPUs = 416

// Built is a scenario resolved to concrete simulation inputs. Trace,
// Profile and TrueProfile are immutable and safely shared; Config
// constructs fresh policy instances per call (placers carry RNG state),
// so one Built can drive many concurrent runs — unless Counters is
// set: the engine increments it without atomics, so a counter-bearing
// Built must drive one run at a time (give concurrent runs their own
// Built or their own Counters via Config).
type Built struct {
	Spec  *Spec
	Topo  cluster.Topology
	Trace *trace.Trace
	// Profile is what the placers bin and consult; TrueProfile is what
	// the engine charges jobs. They are the same profile unless the
	// spec's profile.stale block mis-profiles the cluster.
	Profile     *vprof.Profile
	TrueProfile *vprof.Profile

	// Counters, when non-nil, is handed to every Config this Built
	// produces (sim.Config.Counters): the engine's introspection
	// counters accumulate across the runs it drives — for a forked run,
	// capture and resume land on the same instance, so the counters
	// tell the whole warmup-then-switch story. Observation-only and
	// outside Key(): results and cache keys are untouched.
	Counters *sim.Counters
}

// Build resolves the spec's cluster, workload and profile. Generation
// is deterministic in the spec, so building twice — or on two machines
// — yields identical inputs.
func (s *Spec) Build() (*Built, error) {
	if s.Grid != nil {
		// A grid spec is a generator, not one configuration; building it
		// would have to pick a cell arbitrarily. Count the cells so the
		// message says what the spec actually describes.
		n := "?"
		if cells, err := s.ExpandGrid(); err == nil {
			n = fmt.Sprintf("%d", len(cells))
		}
		return nil, fmt.Errorf("scenario %s: spec is a grid of %s cells; expand it first (Spec.ExpandGrid, or sweep it with palsweep -scenario)", s.Name, n)
	}
	topo := cluster.Topology{
		NumNodes:     s.Cluster.Nodes,
		GPUsPerNode:  s.Cluster.GPUsPerNode,
		NodesPerRack: s.Cluster.NodesPerRack,
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	tr, err := s.buildTrace()
	if err != nil {
		return nil, err
	}
	prof, err := s.buildProfile(topo.Size())
	if err != nil {
		return nil, err
	}
	if prof.NumGPUs() < topo.Size() {
		return nil, fmt.Errorf("scenario %s: profile %q covers %d GPUs, cluster has %d",
			s.Name, prof.Name(), prof.NumGPUs(), topo.Size())
	}
	// The engine and the placers index the profile by job class, so a
	// (file-sourced) job outside the profile's classes must fail here,
	// not panic mid-run. Under admit-all a job larger than the cluster
	// is admitted but can never be placed, so a strict FIFO prefix
	// blocks behind it until MaxRounds; admit-fits rejects it on
	// arrival.
	for _, j := range tr.Jobs {
		if j.Class < 0 || int(j.Class) >= prof.NumClasses() {
			return nil, fmt.Errorf("scenario %s: workload job %d has class %d, want 0..%d (profile %q has %d classes)",
				s.Name, j.ID, int(j.Class), prof.NumClasses()-1, prof.Name(), prof.NumClasses())
		}
		if s.Admission == "admit-all" && j.Demand > topo.Size() {
			return nil, fmt.Errorf("scenario %s: workload job %d demands %d GPUs, the cluster has %d (admit-all never rejects it; use admit-fits)",
				s.Name, j.ID, j.Demand, topo.Size())
		}
	}
	truth, err := s.staleTruth(prof, topo.Size())
	if err != nil {
		return nil, err
	}
	return &Built{Spec: s, Topo: topo, Trace: tr, Profile: prof, TrueProfile: truth}, nil
}

// staleTruth returns the profile the engine charges: prof itself, or
// prof with the profile.stale block's GPUs running Factor times slower
// than profiled for its class.
func (s *Spec) staleTruth(prof *vprof.Profile, clusterGPUs int) (*vprof.Profile, error) {
	st := s.Profile.Stale
	if st == nil {
		return prof, nil
	}
	if st.Class >= prof.NumClasses() {
		return nil, fmt.Errorf("scenario %s: profile stale class %d, want 0..%d (profile %q has %d classes)",
			s.Name, st.Class, prof.NumClasses()-1, prof.Name(), prof.NumClasses())
	}
	if st.GPUs > clusterGPUs {
		return nil, fmt.Errorf("scenario %s: profile stale gpus %d, want 1..%d (the cluster's size)",
			s.Name, st.GPUs, clusterGPUs)
	}
	// The true scores are Factor times the profiled ones before they
	// renormalize to their median; a factor that over- or underflows
	// the scores is an error, not a NaN.
	gpus := make([]int, st.GPUs)
	for g := range gpus {
		gpus[g] = g
	}
	truth, err := vprof.PerturbStaleGPUs(prof, vprof.Class(st.Class), gpus, 1/st.Factor)
	if err == nil {
		err = usableScores(truth)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: profile stale factor %g leaves a charged profile the engine cannot use: %w",
			s.Name, st.Factor, err)
	}
	return truth, nil
}

// usableScores reports the first score of p that is not finite and
// positive: one the engine cannot charge a job's runtime by.
func usableScores(p *vprof.Profile) error {
	for c := 0; c < p.NumClasses(); c++ {
		for g := 0; g < p.NumGPUs(); g++ {
			if v := p.Score(vprof.Class(c), g); !(v > 0) || math.IsInf(v, 0) {
				return fmt.Errorf("class %d GPU %d scores %g", c, g, v)
			}
		}
	}
	return nil
}

// buildTrace materializes the workload.
func (s *Spec) buildTrace() (*trace.Trace, error) {
	w := s.Workload
	switch w.Source {
	case "sia-philly":
		params := trace.DefaultSiaPhillyParams()
		params.NumJobs = w.NumJobs
		params.WindowHours = w.WindowHours
		params.Seed = w.Seed
		return trace.SiaPhilly(params, w.Workload), nil
	case "synergy":
		params := trace.DefaultSynergyParams(w.JobsPerHour)
		params.NumJobs = w.NumJobs
		params.Seed = w.Seed
		return trace.Synergy(params), nil
	case "synthetic":
		return trace.Synth(s.synthParams())
	case "file":
		path := s.filePath(w.Path)
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: workload: %w", s.Name, err)
		}
		defer f.Close()
		tr, err := trace.Load(f)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: workload %s: %w", s.Name, path, err)
		}
		return tr, nil
	}
	return nil, fmt.Errorf("scenario %s: unknown workload source %q", s.Name, w.Source)
}

// profileMemo caches generated profiles per (source, gpus, seed):
// generation plus subsampling is cheap, but cells fanned out over a
// pool build repeatedly and profiles are immutable.
var profileMemo runner.Memo[string, *vprof.Profile]

// GeneratedProfile returns the profile a generated source ("longhorn",
// "frontera" or "testbed") yields for a gpus-GPU cluster at the given
// seed. Longhorn and frontera follow the paper's methodology (§IV-C):
// generate the full 416-GPU cluster's profile, then sample the
// cluster's GPUs from it without repetition. The result is memoized
// and shared; callers must not mutate it.
func GeneratedProfile(source string, gpus int, seed uint64) (*vprof.Profile, error) {
	if gpus < 1 {
		return nil, fmt.Errorf("%s profile for %d GPUs, want >= 1", source, gpus)
	}
	switch source {
	case "longhorn", "frontera":
		if gpus > fullClusterGPUs {
			return nil, fmt.Errorf("%s profiles cover at most %d GPUs, cluster has %d",
				source, fullClusterGPUs, gpus)
		}
		key := fmt.Sprintf("%s-%d-%d", source, gpus, seed)
		var err error
		prof := profileMemo.Get(key, func() *vprof.Profile {
			var full *vprof.Profile
			if source == "longhorn" {
				full = vprof.GenerateLonghorn(fullClusterGPUs, seed)
			} else {
				full = vprof.GenerateFrontera(fullClusterGPUs, seed)
			}
			perm := rng.New(seed).Split(uint64(gpus)).Perm(full.NumGPUs())
			sub, serr := full.Subsample(key, perm, gpus)
			if serr != nil {
				err = serr
				return nil
			}
			return sub
		})
		return prof, err
	case "testbed":
		if gpus > 64 {
			return nil, fmt.Errorf("the testbed profile covers 64 GPUs, cluster has %d", gpus)
		}
		return profileMemo.Get(fmt.Sprintf("testbed-%d", seed), func() *vprof.Profile {
			return vprof.GenerateTestbed(seed)
		}), nil
	}
	return nil, fmt.Errorf("unknown generated profile source %q (want longhorn, frontera or testbed)", source)
}

// buildProfile materializes the variability profile, sized to cover the
// cluster.
func (s *Spec) buildProfile(gpus int) (*vprof.Profile, error) {
	p := s.Profile
	if p.Source != "file" {
		prof, err := GeneratedProfile(p.Source, gpus, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		return prof, nil
	}
	path := s.filePath(p.Path)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: profile: %w", s.Name, err)
	}
	defer f.Close()
	prof, err := vprof.Load(f)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: profile %s: %w", s.Name, path, err)
	}
	return prof, nil
}

// binMemo caches the silhouette K-Means binning per profile: binning
// is O(n²) per class and profiles are shared immutable values. Its
// single flight bins each profile exactly once, however many runs over
// it start at once.
var binMemo runner.Memo[*vprof.Profile, *vprof.Binned]

// Bins returns the memoized silhouette K-Means binning of a profile
// (vprof.BinProfile), the PM-score view the placers consult. The
// returned Binned is shared and read-only.
func Bins(p *vprof.Profile) *vprof.Binned {
	return binMemo.Get(p, func() *vprof.Binned { return vprof.BinProfile(p) })
}

// Config assembles a sim.Config for the built scenario. Each call
// constructs fresh scheduler, placer and admission instances — placers
// hold RNG state, so sharing one across runs would couple them.
func (b *Built) Config() (sim.Config, error) {
	s := b.Spec
	schedPolicy, err := sched.Build(s.Sched.Name, s.Sched.Params)
	if err != nil {
		return sim.Config{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	var modelLacross map[string]float64
	if s.Locality.PerModel {
		modelLacross = trace.LacrossByModel()
	}
	placer, err := b.buildPlacer(s.Policy.Name)
	if err != nil {
		return sim.Config{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	// A placer that learns from execution feedback (policy.params
	// online) observes the run.
	observer, _ := placer.(sim.Observer)
	if observer != nil && s.Fork != nil {
		return sim.Config{}, fmt.Errorf("scenario %s: policy %s learns from execution feedback, which a fork snapshot does not capture; drop the fork block or the online param",
			s.Name, s.Policy.Name)
	}
	admit, err := buildAdmission(s.Admission)
	if err != nil {
		return sim.Config{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	migration := s.Engine.MigrationPenaltySec
	switch {
	case migration == 0:
		migration = DefaultMigrationPenaltySec
	case migration < 0:
		migration = 0
	}
	var sink sim.MetricsSink
	if s.Metrics.Enabled {
		// A fresh collector per Config call, like the policy instances:
		// collectors hold per-run state, so sharing one across runs would
		// interleave their observations.
		collector, err := metrics.NewCollector(metrics.Config{
			IntervalRounds: s.Metrics.IntervalRounds,
			MaxSamples:     s.Metrics.MaxSamples,
			HistBins:       s.Metrics.HistBins,
			Series:         s.Metrics.Series,
			ClusterGPUs:    b.Topo.Size(),
			Label:          s.Name,
			Policy:         s.Policy.Name,
			Sched:          s.Sched.Name,
		})
		if err != nil {
			return sim.Config{}, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		sink = collector
	}
	var decSink sim.DecisionSink
	if s.Decisions.Enabled {
		// Fresh recorder per Config call, for the same reason as the
		// collector: recorders hold per-run ring-buffer state.
		rec, err := decision.NewRecorder(decision.Config{
			Label:      s.Name,
			Policy:     s.Policy.Name,
			Sched:      s.Sched.Name,
			MaxRecords: s.Decisions.MaxRecords,
			Facets:     s.Decisions.Record,
		})
		if err != nil {
			return sim.Config{}, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		decSink = rec
	}
	return sim.Config{
		Topology:            b.Topo,
		Trace:               b.Trace,
		Sched:               schedPolicy,
		Placer:              placer,
		Observer:            observer,
		Admit:               admit,
		TrueProfile:         b.TrueProfile,
		Lacross:             s.Locality.Lacross,
		ModelLacross:        modelLacross,
		Lrack:               s.Locality.Lrack,
		RoundSec:            s.Engine.RoundSec,
		MaxRounds:           s.Engine.MaxRounds,
		MeasureFirst:        s.Engine.MeasureFirst,
		MeasureLast:         s.Engine.MeasureLast,
		MigrationPenaltySec: migration,
		Metrics:             sink,
		Decisions:           decSink,
		Counters:            b.Counters,
	}, nil
}

// buildPlacer constructs a placement policy by registry name against
// the built scenario's profile and locality model. The spec's own
// policy takes its RNG stream from policy.seed when set; otherwise, and
// for a fork's differing warmup policy, the stream derives from the
// spec seed and the policy name — so each policy gets the stream it
// would have gotten as the spec's policy. Only the spec's own policy
// takes policy.params.
func (b *Built) buildPlacer(name string) (sim.Placer, error) {
	s := b.Spec
	var modelLacross map[string]float64
	if s.Locality.PerModel {
		modelLacross = trace.LacrossByModel()
	}
	seed := runner.DeriveSeed(s.Seed, "scenario/placer/"+name)
	var params map[string]float64
	if name == s.Policy.Name {
		if s.Policy.Seed != 0 {
			seed = s.Policy.Seed
		}
		params = s.Policy.Params
	}
	return place.Build(name, place.BuildEnv{
		Scores:       Bins(b.Profile),
		Profile:      b.Profile,
		Lacross:      s.Locality.Lacross,
		ModelLacross: modelLacross,
		Lrack:        s.Locality.Lrack,
		Seed:         seed,
		Params:       params,
	})
}

// Run builds a config and executes the simulation once. A fork-bearing
// spec runs its warmup-then-switch semantics (RunForked).
func (b *Built) Run() (*sim.Result, error) {
	if b.Forked() {
		return b.RunForked()
	}
	cfg, err := b.Config()
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg)
}

// admissionPolicies are the admission policies a spec can name.
var admissionPolicies = map[string]func() sim.Admission{
	"admit-all":  func() sim.Admission { return sim.AdmitAll{} },
	"admit-fits": func() sim.Admission { return sim.AdmitFits{} },
}

// AdmissionNames returns the admission-policy names, sorted.
func AdmissionNames() []string {
	names := make([]string, 0, len(admissionPolicies))
	for n := range admissionPolicies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func buildAdmission(name string) (sim.Admission, error) {
	build, ok := admissionPolicies[name]
	if !ok {
		return nil, fmt.Errorf("unknown admission policy %q (have %v)", name, AdmissionNames())
	}
	return build(), nil
}

// Key returns the content-addressed cache key of the built scenario for
// the runner's result cache: a canonical hash over the normalized spec
// plus the materialized trace and profile content. Hashing the built
// content (not just the spec) means file-sourced workloads key on what
// the file contained, and two specs that materialize identical inputs
// by different routes share a key only when the whole configuration
// genuinely matches.
func (b *Built) Key() string {
	h := runner.NewHash()
	// v5: the spec grew the fork block (warmup-then-switch runs; a
	// forked run must never alias its unforked counterpart). v4 added
	// the grid block and the per-cell defaulting pass that comes with it
	// (grid bases stay un-normalized; cells normalize after axis
	// overrides); v3 added the decisions block (whose trace rides on
	// cached results, so a decisions-on run must never alias a
	// decisions-off one); v2 added the metrics block for the same reason.
	h.String("scenario/v5")
	canon, err := b.Spec.Canonical()
	if err != nil {
		// Canonical only fails on a non-serializable spec, which Parse
		// can never produce; fail the key rather than alias runs.
		panic(err)
	}
	h.String(string(canon))
	h.String(b.Trace.Name)
	hashJobs(h, b.Trace.Jobs)
	hashProfile(h, b.Profile)
	return h.Sum()
}

// hashJobs folds job specs into a cache key (count plus every field
// that reaches the simulation).
func hashJobs(h *runner.Hash, jobs []trace.JobSpec) {
	h.Int(len(jobs))
	for _, j := range jobs {
		h.Int(j.ID)
		h.String(j.Model)
		h.Int(int(j.Class))
		h.Float64(j.Arrival)
		h.Int(j.Demand)
		h.Float64(j.Work)
	}
}

// hashProfile folds the materialized variability profile's content into
// a cache key.
func hashProfile(h *runner.Hash, p *vprof.Profile) {
	h.String(p.Name())
	h.Int(p.NumClasses())
	h.Int(p.NumGPUs())
	for c := 0; c < p.NumClasses(); c++ {
		h.Floats(p.ClassScores(vprof.Class(c)))
	}
}
