// Package scenario is the declarative configuration layer: it turns a
// JSON spec — cluster topology, variability-profile source, workload
// generator, policy selection by name — into a ready-to-run simulation,
// opening the scenario space beyond the paper's hard-coded Sia/Synergy/
// testbed configurations without writing Go for each new question.
//
// A spec is data, not code (the approach config-as-data simulators like
// BLIS use): the same JSON file drives `palsim -scenario` for one run,
// `palsweep -scenario` for concurrent cached runs, and programmatic use
// through Build. Policy names resolve through the registries in
// internal/sched and internal/place, so a policy registered by any
// package — including user extensions — is addressable from a spec with
// no further wiring.
//
// Specs are canonicalized before use: Parse applies documented defaults
// and validates, and Canonical re-serializes the normalized spec to
// stable bytes. Canonicalization is idempotent (parse → canonicalize →
// parse is a fixed point, pinned by tests), which is what makes the
// canonical form fit for content-addressing: Built.Key hashes the
// canonical spec plus the generated trace and profile content into the
// runner cache's key space, so identical scenarios reached from
// different files or processes simulate once.
//
// Everything downstream of a spec is deterministic: workloads, profiles
// and policy tie-breaking all derive their streams from the spec's seed
// via rng.Split, so a spec file is a complete, reproducible description
// of an experiment.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Spec is the top-level declarative scenario description. Zero-valued
// optional fields select documented defaults during normalization;
// unknown JSON fields are rejected so typos fail loudly.
type Spec struct {
	// Name labels the scenario in tables and output files.
	Name string `json:"name"`
	// Seed is the root determinism seed. Workload generation, profile
	// sampling and policy tie-breaking derive independent sub-streams
	// from it. Default 1.
	Seed uint64 `json:"seed,omitempty"`

	Cluster  ClusterSpec  `json:"cluster"`
	Profile  ProfileSpec  `json:"profile"`
	Workload WorkloadSpec `json:"workload"`
	Policy   PolicySpec   `json:"policy"`
	Sched    SchedSpec    `json:"sched"`
	// Admission selects the admission-control policy by registered name
	// (default "admit-fits").
	Admission string        `json:"admission,omitempty"`
	Locality  LocalitySpec  `json:"locality"`
	Engine    EngineSpec    `json:"engine"`
	Metrics   MetricsSpec   `json:"metrics"`
	Decisions DecisionsSpec `json:"decisions"`
	// Fork, when present, makes the run a warmup-then-switch experiment:
	// the engine runs under the fork's warmup policies until the horizon
	// round, snapshots there, and continues under the spec's own
	// policies. Cells of one sweep that share a warmup prefix share the
	// snapshot (see Built.PrefixKey) — the sweep simulates the prefix
	// once and forks every cell from it.
	Fork *ForkSpec `json:"fork,omitempty"`
	// Grid, when present, turns the spec into a cross-product generator:
	// ExpandGrid yields one ordinary per-cell spec per combination of the
	// listed axis values. Grid-bearing specs cannot Build directly.
	Grid *GridSpec `json:"grid,omitempty"`
}

// ClusterSpec describes the simulated cluster's topology.
type ClusterSpec struct {
	Nodes        int `json:"nodes"`                   // default 16
	GPUsPerNode  int `json:"gpus_per_node,omitempty"` // default 4
	NodesPerRack int `json:"nodes_per_rack,omitempty"`
}

// ProfileSpec selects the variability profile jobs experience.
//
// Sources "longhorn" and "frontera" reproduce the paper's methodology:
// generate the full 416-GPU cluster profile, then sample the scenario's
// GPUs from it without repetition (§IV-C). Source "testbed" is the
// 64-GPU Fig. 8 subset. Source "file" loads a profile previously saved
// with vprof.Profile.Save.
type ProfileSpec struct {
	Source string `json:"source"` // longhorn | frontera | testbed | file; default longhorn
	// Seed for profile generation and GPU sampling. Defaults to
	// DefaultProfileSeed (0x9A1; the testbed source uses
	// DefaultTestbedSeed, 0x9A8), so a scenario on a 64-GPU longhorn
	// cluster experiences the exact profile Fig. 11 runs on and a
	// testbed scenario the exact Fig. 8 profile.
	Seed uint64 `json:"seed,omitempty"`
	// Path of the profile JSON (source "file" only).
	Path string `json:"path,omitempty"`
	// Stale, when present, mis-profiles the cluster: the engine charges
	// jobs the perturbed scores it describes, while the placers bin and
	// consult the profile as generated (or loaded). This is the stale
	// node-0 profile of the paper's testbed comparison (§V-A, Figs. 9-10,
	// Table IV). Absent means the placers see exactly what jobs
	// experience.
	Stale *StaleSpec `json:"stale,omitempty"`
}

// StaleSpec describes a mis-profiled class on the cluster's leading
// GPUs: jobs of Class run Factor times slower on GPUs 0..GPUs-1,
// relative to the class's other GPUs, than the profile says
// (vprof.PerturbStaleGPUs with 1/Factor; the charged scores are
// renormalized to their median GPU like every profile).
type StaleSpec struct {
	// Class is the mis-profiled variability class (0 = A, 1 = B, 2 = C);
	// it must be one of the profile's classes.
	Class int `json:"class"`
	// GPUs counts the leading GPUs whose profile is stale, from 1 to the
	// cluster's size.
	GPUs int `json:"gpus"`
	// Factor is how much slower than profiled those GPUs really run
	// (finite and > 0, with a finite reciprocal; the testbed figures
	// use 3). Build rejects a factor that over- or underflows the
	// profile's scores.
	Factor float64 `json:"factor"`
}

// WorkloadSpec selects the job trace.
type WorkloadSpec struct {
	// Source: "sia-philly", "synergy", "synthetic" or "file".
	Source string `json:"source"`
	// Seed for workload generation; 0 defaults to the spec's root seed.
	Seed uint64 `json:"seed,omitempty"`

	// sia-philly: the workload index (1-8 in the paper) and optional
	// overrides of the published shape.
	Workload    int     `json:"workload,omitempty"`
	NumJobs     int     `json:"num_jobs,omitempty"`
	WindowHours float64 `json:"window_hours,omitempty"`

	// synergy and synthetic: mean arrival rate.
	JobsPerHour float64 `json:"jobs_per_hour,omitempty"`

	// synthetic: arrival process and distribution knobs
	// (trace.SynthParams documents defaults).
	Arrivals      string    `json:"arrivals,omitempty"` // poisson | bursty | diurnal
	BurstFactor   float64   `json:"burst_factor,omitempty"`
	BurstFraction float64   `json:"burst_fraction,omitempty"`
	BurstMeanSec  float64   `json:"burst_mean_sec,omitempty"`
	PeriodHours   float64   `json:"period_hours,omitempty"`
	PeakToTrough  float64   `json:"peak_to_trough,omitempty"`
	Demands       []int     `json:"demands,omitempty"`
	DemandWeights []float64 `json:"demand_weights,omitempty"`
	MedianWorkSec float64   `json:"median_work_sec,omitempty"`
	DurationSigma float64   `json:"duration_sigma,omitempty"`
	MinWorkSec    float64   `json:"min_work_sec,omitempty"`
	MaxWorkSec    float64   `json:"max_work_sec,omitempty"`

	// file: a trace previously saved with trace.Trace.Save — the replay
	// half of the generate → save → replay round trip.
	Path string `json:"path,omitempty"`
}

// PolicySpec selects the placement policy from the registry in
// internal/place ("pal", "pm-first", "packed-sticky"/"tiresias", ...).
type PolicySpec struct {
	Name string `json:"name"` // default "pal"
	// Seed, when nonzero, seeds the placer's RNG stream directly. 0
	// derives it from the root seed and the policy name
	// (runner.DeriveSeed(seed, "scenario/placer/"+name)). A fork's
	// warmup placer uses it only when the warmup policy is the spec's
	// own. The paper figures set it to keep the streams their recorded
	// values were drawn with; the random and packed placers draw from
	// it, PAL and PM-First do not.
	Seed uint64 `json:"seed,omitempty"`
}

// SchedSpec selects the scheduling policy from the registry in
// internal/sched, with optional numeric parameters (e.g. las
// {"threshold_sec": 14400}).
type SchedSpec struct {
	Name   string             `json:"name"` // default "fifo"
	Params map[string]float64 `json:"params,omitempty"`
}

// LocalitySpec sets the locality-penalty model of Equation 1.
type LocalitySpec struct {
	// Lacross is the inter-node penalty (default 1.5).
	Lacross float64 `json:"lacross,omitempty"`
	// PerModel applies the Table II per-model penalties on top of
	// Lacross (missing models fall back to Lacross).
	PerModel bool `json:"per_model,omitempty"`
	// Lrack enables the three-level rack extension when positive
	// (requires cluster.nodes_per_rack > 0 to have any effect).
	Lrack float64 `json:"lrack,omitempty"`
}

// EngineSpec sets round-engine knobs; zero values mean the sim.Config
// defaults (300 s rounds, 1,000,000-round truncation cap).
type EngineSpec struct {
	RoundSec  float64 `json:"round_sec,omitempty"`
	MaxRounds int     `json:"max_rounds,omitempty"`
	// MigrationPenaltySec: 0 selects the default 10 s checkpoint/restore
	// cost (DefaultMigrationPenaltySec); negative disables the penalty.
	MigrationPenaltySec float64 `json:"migration_penalty_sec,omitempty"`
	MeasureFirst        int     `json:"measure_first,omitempty"`
	MeasureLast         int     `json:"measure_last,omitempty"`
}

// MetricsSpec attaches the telemetry collector (internal/metrics) to the
// run. Collection is fast-forward-safe — enabling it does not forfeit
// the engine's dead-time skipping — and purely observational: results
// with and without metrics are byte-identical. The collected payload
// rides on the result (and through the runner cache) and is what
// `palsim/palsweep -metrics` archive and `palreport` aggregates.
type MetricsSpec struct {
	// Enabled switches collection on. When false, every other field must
	// be zero (a configured-but-disabled block is almost certainly a
	// mistake, so it is rejected).
	Enabled bool `json:"enabled,omitempty"`
	// IntervalRounds samples every k-th simulated round (default 1).
	IntervalRounds int `json:"interval_rounds,omitempty"`
	// MaxSamples bounds each series' ring buffer (default
	// metrics.DefaultMaxSamples); the ring keeps the most recent samples.
	MaxSamples int `json:"max_samples,omitempty"`
	// Series selects recorded series by name (metrics.AllSeries lists
	// the vocabulary; empty means all). Normalization sorts and dedupes
	// the list, so spec files naming the same set in any order
	// canonicalize — and cache-key — identically.
	Series []string `json:"series,omitempty"`
	// HistBins is the bin count of the JCT/wait histograms (default
	// metrics.DefaultHistBins).
	HistBins int `json:"hist_bins,omitempty"`
}

// DecisionsSpec attaches the decision recorder (internal/decision) to
// the run. Like metrics, recording is fast-forward-safe and purely
// observational — results with and without it are byte-identical — and
// the trace rides on the result (and through the runner cache); it is
// what `palsim/palsweep -metrics` archive next to the telemetry payload
// and what `palexplain` renders.
type DecisionsSpec struct {
	// Enabled switches recording on. When false, every other field must
	// be zero (a configured-but-disabled block is almost certainly a
	// mistake, so it is rejected).
	Enabled bool `json:"enabled,omitempty"`
	// MaxRecords bounds the trace's ring buffer (default
	// decision.DefaultMaxRecords); the ring keeps the most recent
	// decision records and flags the trace Truncated when any drop.
	MaxRecords int `json:"max_records,omitempty"`
	// Record selects recorded facets by name (decision.AllFacets lists
	// the vocabulary; empty means all). Normalization sorts and dedupes
	// the list, so spec files naming the same set in any order
	// canonicalize — and cache-key — identically.
	Record []string `json:"record,omitempty"`
}

// ForkSpec configures the warmup-then-switch fork: the run proceeds
// under the warmup policies up to (but not including) the horizon
// round, the engine state is captured there, and the run resumes under
// the spec's own policy and sched. Leaving Policy/Sched empty selects
// the spec's own — a pure prefix-caching fork whose result is
// byte-identical to the unforked run.
type ForkSpec struct {
	// Rounds is the horizon: the scheduling round at which the run
	// switches from the warmup policies to the spec's own. The capture
	// happens at the top of this round, before its admissions.
	Rounds int `json:"rounds"`
	// Policy names the warmup placement policy (a registry name from
	// internal/place). Empty selects the spec's own policy.
	Policy string `json:"policy,omitempty"`
	// Sched names the warmup scheduling policy (a registry name from
	// internal/sched, built with default parameters unless it equals the
	// spec's own sched, which keeps the spec's params). Empty selects
	// the spec's own sched.
	Sched string `json:"sched,omitempty"`
}

// Parse decodes, normalizes and validates a scenario spec. Unknown
// fields are an error.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	// Anything but whitespace after the spec means the file is not one
	// spec.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after spec")
	}
	s.normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile parses the spec in the named file.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// Normalize applies the documented defaults in place. Parse calls it
// automatically; callers that mutate a parsed spec (e.g. a CLI flag
// force-enabling metrics) should re-Normalize so the spec's canonical
// form — and therefore its cache key — matches what parsing the mutated
// configuration from a file would produce.
func (s *Spec) Normalize() { s.normalize() }

// normalize applies defaults in place. It is idempotent: normalizing a
// normalized spec changes nothing, the property that makes Canonical a
// fixed point under re-parsing.
func (s *Spec) normalize() {
	if s.Name == "" {
		s.Name = "scenario"
	}
	if s.Grid != nil {
		// A grid base stays otherwise un-normalized: defaults are applied
		// per expanded cell after the axis overrides, so cross-field
		// defaults (the synthetic workload seed following the root seed,
		// synergy num_jobs following jobs_per_hour) are computed from each
		// cell's own values instead of being frozen at the base's.
		return
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Cluster.Nodes == 0 {
		s.Cluster.Nodes = 16
	}
	if s.Cluster.GPUsPerNode == 0 {
		s.Cluster.GPUsPerNode = 4
	}
	if s.Profile.Source == "" {
		s.Profile.Source = "longhorn"
	}
	if s.Profile.Seed == 0 {
		// Default to the paper figures' seeds so a scenario over a
		// same-sized cluster experiences the exact per-GPU scores the
		// figures run on (the testbed generator uses a shifted seed,
		// matching Fig. 8).
		switch s.Profile.Source {
		case "longhorn", "frontera":
			s.Profile.Seed = DefaultProfileSeed
		case "testbed":
			s.Profile.Seed = DefaultTestbedSeed
		}
	}
	if s.Workload.Source == "" {
		s.Workload.Source = "synthetic"
	}
	switch s.Workload.Source {
	case "sia-philly":
		if s.Workload.Workload == 0 {
			s.Workload.Workload = 1
		}
		def := trace.DefaultSiaPhillyParams()
		// Workload seeds default to the published generators' seeds, so
		// a scenario naming "sia-philly" without a seed replays the
		// exact traces the paper figures ran on.
		if s.Workload.Seed == 0 {
			s.Workload.Seed = def.Seed
		}
		if s.Workload.NumJobs == 0 {
			s.Workload.NumJobs = def.NumJobs
		}
		if s.Workload.WindowHours == 0 {
			s.Workload.WindowHours = def.WindowHours
		}
	case "synergy":
		if s.Workload.JobsPerHour == 0 {
			s.Workload.JobsPerHour = 10
		}
		def := trace.DefaultSynergyParams(s.Workload.JobsPerHour)
		if s.Workload.Seed == 0 {
			s.Workload.Seed = def.Seed
		}
		if s.Workload.NumJobs == 0 {
			s.Workload.NumJobs = def.NumJobs
		}
	case "synthetic":
		if s.Workload.Arrivals == "" {
			s.Workload.Arrivals = string(trace.ArrivalPoisson)
		}
		if s.Workload.JobsPerHour == 0 {
			s.Workload.JobsPerHour = 10
		}
		if s.Workload.NumJobs == 0 {
			s.Workload.NumJobs = 500
		}
		if s.Workload.Seed == 0 {
			s.Workload.Seed = s.Seed
		}
	}
	if s.Policy.Name == "" {
		s.Policy.Name = "pal"
	}
	if s.Sched.Name == "" {
		s.Sched.Name = "fifo"
	}
	if len(s.Sched.Params) == 0 {
		s.Sched.Params = nil
	}
	if s.Admission == "" {
		s.Admission = "admit-fits"
	}
	if s.Locality.Lacross == 0 {
		s.Locality.Lacross = 1.5
	}
	if s.Metrics.Enabled {
		if s.Metrics.IntervalRounds == 0 {
			s.Metrics.IntervalRounds = 1
		}
		if s.Metrics.MaxSamples == 0 {
			s.Metrics.MaxSamples = metrics.DefaultMaxSamples
		}
		if s.Metrics.HistBins == 0 {
			s.Metrics.HistBins = metrics.DefaultHistBins
		}
		s.Metrics.Series = sortDedup(s.Metrics.Series)
	}
	if s.Decisions.Enabled {
		if s.Decisions.MaxRecords == 0 {
			s.Decisions.MaxRecords = decision.DefaultMaxRecords
		}
		s.Decisions.Record = sortDedup(s.Decisions.Record)
	}
	if s.Fork != nil {
		// A fork naming the spec's own policy/sched canonicalizes to the
		// empty form ("own"), so the two spellings of the same warmup
		// configuration share one cache key.
		if s.Fork.Policy == s.Policy.Name {
			s.Fork.Policy = ""
		}
		if s.Fork.Sched == s.Sched.Name {
			s.Fork.Sched = ""
		}
	}
}

// sortDedup canonicalizes a name list: sorted, deduplicated, and nil
// when empty — the form the cache keys and Canonical rely on.
func sortDedup(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	dedup := sorted[:0]
	for i, name := range sorted {
		if i == 0 || name != sorted[i-1] {
			dedup = append(dedup, name)
		}
	}
	return dedup
}

// Validate checks the normalized spec for structural errors that do not
// require building anything. Name resolution against the policy
// registries happens in Build, where construction can fail anyway.
// Every error states the offending value *and* the expected range, so a
// bad spec is fixable from the message alone.
func (s *Spec) Validate() error {
	if s.Grid != nil {
		// Grid-bearing specs are validated through their expansion: the
		// axis lists are checked, then every expanded cell is normalized
		// and validated like a hand-written spec.
		return s.validateGrid()
	}
	if s.Cluster.Nodes <= 0 {
		return fmt.Errorf("scenario %s: cluster nodes %d, want >= 1", s.Name, s.Cluster.Nodes)
	}
	if s.Cluster.GPUsPerNode <= 0 {
		return fmt.Errorf("scenario %s: cluster gpus_per_node %d, want >= 1", s.Name, s.Cluster.GPUsPerNode)
	}
	if s.Cluster.NodesPerRack < 0 {
		return fmt.Errorf("scenario %s: cluster nodes_per_rack %d, want >= 0 (0 disables rack grouping)",
			s.Name, s.Cluster.NodesPerRack)
	}
	switch s.Profile.Source {
	case "longhorn", "frontera", "testbed":
	case "file":
		if s.Profile.Path == "" {
			return fmt.Errorf("scenario %s: profile source \"file\" needs a path", s.Name)
		}
	default:
		return fmt.Errorf("scenario %s: unknown profile source %q (want longhorn, frontera, testbed or file)",
			s.Name, s.Profile.Source)
	}
	if st := s.Profile.Stale; st != nil {
		if st.Class < 0 {
			return fmt.Errorf("scenario %s: profile stale class %d, want >= 0 (a class of the profile)", s.Name, st.Class)
		}
		if st.GPUs < 1 {
			return fmt.Errorf("scenario %s: profile stale gpus %d, want >= 1 (leading GPUs mis-profiled)", s.Name, st.GPUs)
		}
		if !(st.Factor > 0) || math.IsInf(st.Factor, 0) || math.IsInf(1/st.Factor, 0) {
			return fmt.Errorf("scenario %s: profile stale factor %g, want a finite value > 0 with a finite reciprocal", s.Name, st.Factor)
		}
	}
	switch s.Workload.Source {
	case "sia-philly":
		if s.Workload.Workload < 1 {
			return fmt.Errorf("scenario %s: sia-philly workload index %d, want >= 1", s.Name, s.Workload.Workload)
		}
	case "synergy":
		if s.Workload.JobsPerHour <= 0 {
			return fmt.Errorf("scenario %s: synergy jobs_per_hour %g, want > 0", s.Name, s.Workload.JobsPerHour)
		}
		if s.Workload.NumJobs <= 0 {
			return fmt.Errorf("scenario %s: synergy num_jobs %d, want >= 1", s.Name, s.Workload.NumJobs)
		}
	case "synthetic":
		if err := s.synthParams().Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	case "file":
		if s.Workload.Path == "" {
			return fmt.Errorf("scenario %s: workload source \"file\" needs a path", s.Name)
		}
	default:
		return fmt.Errorf("scenario %s: unknown workload source %q (want sia-philly, synergy, synthetic or file)",
			s.Name, s.Workload.Source)
	}
	if s.Locality.Lacross < 1 {
		return fmt.Errorf("scenario %s: lacross %g, want >= 1", s.Name, s.Locality.Lacross)
	}
	if s.Locality.Lrack < 0 || (s.Locality.Lrack > 0 && s.Locality.Lrack < 1) {
		return fmt.Errorf("scenario %s: lrack %g, want 0 (disabled) or >= 1", s.Name, s.Locality.Lrack)
	}
	if s.Engine.RoundSec < 0 {
		return fmt.Errorf("scenario %s: engine round_sec %g, want >= 0 (0 selects the 300 s default)",
			s.Name, s.Engine.RoundSec)
	}
	if s.Engine.MaxRounds < 0 {
		return fmt.Errorf("scenario %s: engine max_rounds %d, want >= 0 (0 selects the 1,000,000-round default)",
			s.Name, s.Engine.MaxRounds)
	}
	if s.Engine.MeasureFirst < 0 {
		return fmt.Errorf("scenario %s: engine measure_first %d, want >= 0 (a job ID)",
			s.Name, s.Engine.MeasureFirst)
	}
	if s.Engine.MeasureLast < 0 {
		return fmt.Errorf("scenario %s: engine measure_last %d, want >= 0 (a job ID; 0 means the whole trace)",
			s.Name, s.Engine.MeasureLast)
	}
	if err := s.validateMetrics(); err != nil {
		return err
	}
	if err := s.validateDecisions(); err != nil {
		return err
	}
	return s.validateFork()
}

// validateFork checks the fork block. Warmup policy names resolve in
// Build (like the spec's own policy names), where construction can fail
// anyway.
func (s *Spec) validateFork() error {
	f := s.Fork
	if f == nil {
		return nil
	}
	if f.Rounds < 1 {
		return fmt.Errorf("scenario %s: fork rounds %d, want >= 1 (the round the run switches policies at)",
			s.Name, f.Rounds)
	}
	return nil
}

// validateMetrics checks the metrics block.
func (s *Spec) validateMetrics() error {
	m := s.Metrics
	if !m.Enabled {
		if m.IntervalRounds != 0 || m.MaxSamples != 0 || m.HistBins != 0 || len(m.Series) != 0 {
			return fmt.Errorf("scenario %s: metrics configured but not enabled (set \"enabled\": true)", s.Name)
		}
		return nil
	}
	if m.IntervalRounds < 0 {
		return fmt.Errorf("scenario %s: metrics interval_rounds %d, want >= 0 (0 selects every round)",
			s.Name, m.IntervalRounds)
	}
	if m.MaxSamples < 0 {
		return fmt.Errorf("scenario %s: metrics max_samples %d, want >= 0 (0 selects the default %d)",
			s.Name, m.MaxSamples, metrics.DefaultMaxSamples)
	}
	if m.HistBins < 0 {
		return fmt.Errorf("scenario %s: metrics hist_bins %d, want >= 0 (0 selects the default %d)",
			s.Name, m.HistBins, metrics.DefaultHistBins)
	}
	for _, name := range m.Series {
		if !metrics.ValidSeries(name) {
			return fmt.Errorf("scenario %s: unknown metrics series %q (have %v)",
				s.Name, name, metrics.AllSeries())
		}
	}
	return nil
}

// validateDecisions checks the decisions block, mirroring the metrics
// block's conventions (value + expected range in every message).
func (s *Spec) validateDecisions() error {
	d := s.Decisions
	if !d.Enabled {
		if d.MaxRecords != 0 || len(d.Record) != 0 {
			return fmt.Errorf("scenario %s: decisions configured but not enabled (set \"enabled\": true)", s.Name)
		}
		return nil
	}
	if d.MaxRecords < 0 {
		return fmt.Errorf("scenario %s: decisions max_records %d, want >= 0 (0 selects the default %d)",
			s.Name, d.MaxRecords, decision.DefaultMaxRecords)
	}
	for _, name := range d.Record {
		if !decision.ValidFacet(name) {
			return fmt.Errorf("scenario %s: unknown decisions record facet %q (have %v)",
				s.Name, name, decision.AllFacets())
		}
	}
	return nil
}

// synthParams maps the workload spec onto the synthetic generator's
// parameters.
func (s *Spec) synthParams() trace.SynthParams {
	w := s.Workload
	return trace.SynthParams{
		Name:          s.Name + "-synth",
		NumJobs:       w.NumJobs,
		Seed:          w.Seed,
		Arrivals:      trace.ArrivalProcess(w.Arrivals),
		JobsPerHour:   w.JobsPerHour,
		BurstFactor:   w.BurstFactor,
		BurstFraction: w.BurstFraction,
		BurstMeanSec:  w.BurstMeanSec,
		PeriodHours:   w.PeriodHours,
		PeakToTrough:  w.PeakToTrough,
		Demands:       w.Demands,
		DemandWeights: w.DemandWeights,
		MedianWorkSec: w.MedianWorkSec,
		DurationSigma: w.DurationSigma,
		MinWorkSec:    w.MinWorkSec,
		MaxWorkSec:    w.MaxWorkSec,
	}
}

// Canonical returns the normalized spec as stable, indented JSON: fixed
// field order (struct order), defaults filled in, no unknown fields.
// Parse(Canonical(s)) yields a spec whose Canonical bytes are identical
// — the round-trip stability the cache keys and the checked-in example
// specs rely on.
func (s *Spec) Canonical() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, fmt.Errorf("scenario: canonicalize: %w", err)
	}
	return buf.Bytes(), nil
}
