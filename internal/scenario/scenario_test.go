package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
)

// minimalSpec is the smallest useful spec: everything defaulted.
const minimalSpec = `{"name": "t", "workload": {"source": "synthetic", "num_jobs": 40, "jobs_per_hour": 20}}`

func TestParseAppliesDefaults(t *testing.T) {
	s, err := Parse([]byte(minimalSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Cluster.Nodes != 16 || s.Cluster.GPUsPerNode != 4 {
		t.Errorf("cluster defaults: %+v", s.Cluster)
	}
	if s.Profile.Source != "longhorn" || s.Profile.Seed != DefaultProfileSeed {
		t.Errorf("profile defaults: %+v", s.Profile)
	}
	if s.Policy.Name != "pal" || s.Sched.Name != "fifo" || s.Admission != "admit-fits" {
		t.Errorf("policy defaults: %+v / %+v / %s", s.Policy, s.Sched, s.Admission)
	}
	if s.Locality.Lacross != 1.5 {
		t.Errorf("lacross default %g", s.Locality.Lacross)
	}
	if s.Workload.Seed != s.Seed {
		t.Errorf("synthetic workload seed %d, want root seed %d", s.Workload.Seed, s.Seed)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		`{"name": "t", "workload": {"source": "synthetic"}, "typo_field": 1}`,
		`{"workload": {"source": "philly-prod"}}`,
		`{"workload": {"source": "file"}}`,
		`{"profile": {"source": "file"}, "workload": {"source": "synthetic"}}`,
		`{"profile": {"source": "nvidia"}, "workload": {"source": "synthetic"}}`,
		`{"workload": {"source": "synthetic"}, "locality": {"lacross": 0.5}}`,
		`{"workload": {"source": "synthetic"}, "locality": {"lrack": 0.5}}`,
		`{"workload": {"source": "synthetic", "arrivals": "weekly"}}`,
		`{"cluster": {"nodes": -1}, "workload": {"source": "synthetic"}}`,
		`{"workload": {"source": "synthetic"}, "metrics": {"interval_rounds": 5}}`,
		`{"workload": {"source": "synthetic"}, "metrics": {"enabled": true, "series": ["gpu_temperature"]}}`,
		`{"workload": {"source": "synthetic"}, "metrics": {"enabled": true, "interval_rounds": -1}}`,
		`{} trailing`,
		`{"name": "t", "workload": {"source": "synthetic"}}}`,
		`{"name": "t", "workload": {"source": "synthetic"}} {}`,
	}
	for _, src := range bad {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("accepted invalid spec %s", src)
		}
	}
}

// specCorpus enumerates structurally diverse specs for the round-trip
// and build tests.
func specCorpus() []string {
	return []string{
		minimalSpec,
		`{"name": "sia", "workload": {"source": "sia-philly", "workload": 5}, "policy": {"name": "tiresias"}}`,
		`{"name": "syn", "cluster": {"nodes": 8}, "workload": {"source": "synergy", "jobs_per_hour": 8, "num_jobs": 60},
		  "sched": {"name": "las", "params": {"threshold_sec": 14400}}}`,
		`{"name": "burst", "workload": {"source": "synthetic", "arrivals": "bursty", "num_jobs": 50, "jobs_per_hour": 30},
		  "policy": {"name": "pm-first"}, "locality": {"lacross": 2.0, "per_model": true}}`,
		`{"name": "day", "seed": 99, "cluster": {"nodes": 4, "nodes_per_rack": 2},
		  "workload": {"source": "synthetic", "arrivals": "diurnal", "num_jobs": 30, "jobs_per_hour": 15, "peak_to_trough": 3},
		  "policy": {"name": "pal"}, "locality": {"lacross": 1.7, "lrack": 1.2},
		  "engine": {"round_sec": 60}}`,
		`{"name": "rnd", "profile": {"source": "frontera"}, "workload": {"source": "synthetic", "num_jobs": 25, "jobs_per_hour": 40},
		  "policy": {"name": "random-sticky"}, "sched": {"name": "srtf"}, "admission": "admit-all"}`,
		`{"name": "telemetry", "workload": {"source": "synthetic", "num_jobs": 40, "jobs_per_hour": 20},
		  "metrics": {"enabled": true}}`,
		`{"name": "telemetry-tuned", "workload": {"source": "sia-philly", "workload": 2},
		  "policy": {"name": "tiresias"},
		  "metrics": {"enabled": true, "interval_rounds": 4, "max_samples": 128,
		              "series": ["queue_depth", "gpus_in_use", "queue_depth"], "hist_bins": 32}}`,
	}
}

// fuzzMetrics draws a random-but-valid metrics block: either fully
// disabled (all zero — a configured-but-disabled block is rejected) or
// enabled with every knob independently defaulted or set, including
// unsorted duplicate series names to exercise the normalizer.
func fuzzMetrics(r *rng.RNG) MetricsSpec {
	if r.Intn(2) == 0 {
		return MetricsSpec{}
	}
	m := MetricsSpec{
		Enabled:        true,
		IntervalRounds: r.Intn(4),
		MaxSamples:     r.Intn(2) * 256,
		HistBins:       r.Intn(2) * 16,
	}
	for _, name := range metrics.AllSeries() {
		if r.Intn(3) == 0 {
			m.Series = append(m.Series, name, name) // duplicates on purpose
		}
	}
	return m
}

// checkCanonicalRoundTrip asserts parse → canonicalize → parse is a
// fixed point for one spec source. Shared by the corpus/fuzz round-trip
// test below and the grid fuzz test (grid_test.go).
func checkCanonicalRoundTrip(t *testing.T, src []byte) {
	t.Helper()
	s1, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v (spec %s)", err, src)
	}
	c1, err := s1.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(c1)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v\n%s", err, c1)
	}
	c2, err := s2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonicalization not a fixed point:\nfirst:\n%s\nsecond:\n%s", c1, c2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("re-parsed spec differs:\n%+v\nvs\n%+v", s1, s2)
	}
}

// TestCanonicalRoundTripStable is the fuzz-style stability test: for a
// corpus of specs plus randomized mutations of every optional numeric
// field, parse → canonicalize → parse must be a fixed point.
func TestCanonicalRoundTripStable(t *testing.T) {
	check := checkCanonicalRoundTrip
	for i, src := range specCorpus() {
		i, src := i, src
		t.Run(fmt.Sprintf("corpus-%d", i), func(t *testing.T) { check(t, []byte(src)) })
	}

	// Randomized mutations: perturb every optional numeric knob of a
	// synthetic-workload spec through a seeded RNG. 200 variants give
	// wide coverage of default/non-default combinations while staying
	// deterministic across runs.
	r := rng.New(0xF00D)
	for i := 0; i < 200; i++ {
		s := Spec{
			Name: fmt.Sprintf("fuzz-%d", i),
			Seed: r.Uint64() % 1000,
			Cluster: ClusterSpec{
				Nodes:        1 + r.Intn(32),
				GPUsPerNode:  1 + r.Intn(8),
				NodesPerRack: r.Intn(4),
			},
			Profile: ProfileSpec{
				Source: []string{"longhorn", "frontera", "testbed", ""}[r.Intn(4)],
				Seed:   uint64(r.Intn(3)),
			},
			Workload: WorkloadSpec{
				Source:       "synthetic",
				Arrivals:     []string{"poisson", "bursty", "diurnal", ""}[r.Intn(4)],
				NumJobs:      1 + r.Intn(100),
				JobsPerHour:  float64(1 + r.Intn(50)),
				PeakToTrough: 1 + r.Float64()*4,
				MinWorkSec:   float64(1 + r.Intn(500)),
				MaxWorkSec:   float64(1000 + r.Intn(10000)),
			},
			Policy: PolicySpec{Name: []string{"pal", "pm-first", "tiresias", ""}[r.Intn(4)]},
			Sched:  SchedSpec{Name: []string{"fifo", "las", "srtf", ""}[r.Intn(4)]},
			Locality: LocalitySpec{
				Lacross:  1 + r.Float64()*2,
				PerModel: r.Intn(2) == 0,
			},
			Engine: EngineSpec{
				RoundSec:     float64(r.Intn(3) * 150),
				MaxRounds:    r.Intn(2) * 100000,
				MeasureFirst: r.Intn(5),
				MeasureLast:  5 + r.Intn(50),
			},
			Metrics: fuzzMetrics(r),
		}
		// The testbed profile covers 64 GPUs; keep the fuzzed cluster
		// inside every profile source's coverage.
		if s.Cluster.Nodes*s.Cluster.GPUsPerNode > 64 {
			s.Cluster.GPUsPerNode = 2
			s.Cluster.Nodes = 1 + s.Cluster.Nodes%16
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(s.Name, func(t *testing.T) { check(t, raw) })
	}
}

func TestBuildAndRunCorpus(t *testing.T) {
	for i, src := range specCorpus() {
		i, src := i, src
		t.Run(fmt.Sprintf("corpus-%d", i), func(t *testing.T) {
			s, err := Parse([]byte(src))
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			if b.Trace.Validate() != nil || len(b.Trace.Jobs) == 0 {
				t.Fatalf("bad trace: %v", b.Trace)
			}
			if b.Profile.NumGPUs() < b.Topo.Size() {
				t.Fatalf("profile %d GPUs < cluster %d", b.Profile.NumGPUs(), b.Topo.Size())
			}
			res, err := b.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatalf("corpus scenario truncated: %d unfinished", res.Unfinished)
			}
			done := 0
			for _, j := range res.Jobs {
				if j.Done {
					done++
				}
			}
			if done == 0 {
				t.Error("no job completed")
			}
		})
	}
}

func TestBuildDeterministicAndKeyed(t *testing.T) {
	src := []byte(specCorpus()[3])
	s1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := s1.Build()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1.Trace, b2.Trace) {
		t.Error("traces differ across builds of the same spec")
	}
	if b1.Key() != b2.Key() {
		t.Error("keys differ across builds of the same spec")
	}
	r1, err := b1.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.JCTs(), r2.JCTs()) {
		t.Error("same spec produced different JCT tables")
	}

	// A changed knob must change the key.
	s3, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s3.Locality.Lacross = 2.5
	b3, err := s3.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b3.Key() == b1.Key() {
		t.Error("different lacross, same cache key")
	}
}

// TestWorkloadSaveReplay pins the generate → save → replay round trip:
// a file-sourced scenario over a saved workload must reproduce the
// generating scenario's results exactly.
func TestWorkloadSaveReplay(t *testing.T) {
	gen, err := Parse([]byte(specCorpus()[3]))
	if err != nil {
		t.Fatal(err)
	}
	bGen, err := gen.Build()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "workload.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bGen.Trace.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	replay := *gen
	replay.Workload = WorkloadSpec{Source: "file", Path: path, Seed: gen.Workload.Seed}
	bReplay, err := replay.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bGen.Trace, bReplay.Trace) {
		t.Fatal("replayed trace differs from generated trace")
	}
	rGen, err := bGen.Run()
	if err != nil {
		t.Fatal(err)
	}
	rReplay, err := bReplay.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rGen.JCTs(), rReplay.JCTs()) {
		t.Error("replayed workload produced different JCTs")
	}
}

func TestAdmissionRegistry(t *testing.T) {
	if got := AdmissionNames(); !reflect.DeepEqual(got, []string{"admit-all", "admit-fits"}) {
		t.Errorf("admission names %v", got)
	}
	if _, err := buildAdmission("admit-nothing"); err == nil {
		t.Error("unknown admission policy accepted")
	}
	a, err := buildAdmission("admit-all")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.(sim.AdmitAll); !ok {
		t.Errorf("admit-all built %T", a)
	}
}
