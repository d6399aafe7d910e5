package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/decision"
)

// Every Validate error must state the offending value AND the expected
// range, so a bad spec is fixable from the message alone. The table
// drives each invalid field through Parse (the path CLI users hit) and
// asserts the message names the field and its constraint.
func TestValidateMessagesStateConstraints(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want []string // substrings the error must contain
	}{
		{
			name: "negative nodes",
			spec: `{"cluster": {"nodes": -3}}`,
			want: []string{"cluster nodes -3", "want >= 1"},
		},
		{
			name: "negative gpus_per_node",
			spec: `{"cluster": {"nodes": 4, "gpus_per_node": -1}}`,
			want: []string{"gpus_per_node -1", "want >= 1"},
		},
		{
			name: "negative nodes_per_rack",
			spec: `{"cluster": {"nodes": 4, "nodes_per_rack": -2}}`,
			want: []string{"nodes_per_rack -2", "want >= 0", "disables rack grouping"},
		},
		{
			name: "unknown profile source",
			spec: `{"profile": {"source": "summit"}}`,
			want: []string{`unknown profile source "summit"`, "longhorn, frontera, testbed or file"},
		},
		{
			name: "file profile without path",
			spec: `{"profile": {"source": "file"}}`,
			want: []string{`profile source "file" needs a path`},
		},
		{
			name: "negative stale class",
			spec: `{"profile": {"stale": {"class": -1, "gpus": 2, "factor": 3}}}`,
			want: []string{"stale class -1", "want >= 0"},
		},
		{
			name: "stale gpus below 1",
			spec: `{"profile": {"stale": {"class": 0, "gpus": 0, "factor": 3}}}`,
			want: []string{"stale gpus 0", "want >= 1"},
		},
		{
			name: "non-positive stale factor",
			spec: `{"profile": {"stale": {"class": 0, "gpus": 2, "factor": 0}}}`,
			want: []string{"stale factor 0", "finite value > 0"},
		},
		{
			// A subnormal factor's reciprocal overflows to +Inf.
			name: "stale factor with an infinite reciprocal",
			spec: `{"profile": {"stale": {"class": 0, "gpus": 64, "factor": 1e-320}}}`,
			want: []string{"stale factor 1e-320", "finite reciprocal"},
		},
		{
			name: "unknown workload source",
			spec: `{"workload": {"source": "alibaba"}}`,
			want: []string{`unknown workload source "alibaba"`, "sia-philly, synergy, synthetic or file"},
		},
		{
			name: "sia workload index below 1",
			spec: `{"workload": {"source": "sia-philly", "workload": -1}}`,
			want: []string{"workload index -1", "want >= 1"},
		},
		{
			name: "negative synergy rate",
			spec: `{"workload": {"source": "synergy", "jobs_per_hour": -4}}`,
			want: []string{"jobs_per_hour -4", "want > 0"},
		},
		{
			name: "negative synergy num_jobs",
			spec: `{"workload": {"source": "synergy", "jobs_per_hour": 8, "num_jobs": -10}}`,
			want: []string{"num_jobs -10", "want >= 1"},
		},
		{
			name: "lacross below 1",
			spec: `{"locality": {"lacross": 0.5}}`,
			want: []string{"lacross 0.5", "want >= 1"},
		},
		{
			name: "lrack between 0 and 1",
			spec: `{"locality": {"lrack": 0.7}}`,
			want: []string{"lrack 0.7", "want 0 (disabled) or >= 1"},
		},
		{
			name: "negative round_sec",
			spec: `{"engine": {"round_sec": -300}}`,
			want: []string{"round_sec -300", "want >= 0", "300 s default"},
		},
		{
			name: "negative max_rounds",
			spec: `{"engine": {"max_rounds": -1}}`,
			want: []string{"max_rounds -1", "want >= 0", "1,000,000-round default"},
		},
		{
			name: "negative measure_first",
			spec: `{"engine": {"measure_first": -5}}`,
			want: []string{"measure_first -5", "want >= 0"},
		},
		{
			name: "negative measure_last",
			spec: `{"engine": {"measure_last": -5}}`,
			want: []string{"measure_last -5", "want >= 0"},
		},
		{
			name: "metrics configured but disabled",
			spec: `{"metrics": {"hist_bins": 32}}`,
			want: []string{"metrics configured but not enabled", `set "enabled": true`},
		},
		{
			name: "negative metrics interval",
			spec: `{"metrics": {"enabled": true, "interval_rounds": -2}}`,
			want: []string{"interval_rounds -2", "want >= 0"},
		},
		{
			name: "negative metrics max_samples",
			spec: `{"metrics": {"enabled": true, "max_samples": -1}}`,
			want: []string{"max_samples -1", "want >= 0", "default"},
		},
		{
			name: "negative metrics hist_bins",
			spec: `{"metrics": {"enabled": true, "hist_bins": -8}}`,
			want: []string{"hist_bins -8", "want >= 0", "default"},
		},
		{
			name: "unknown metrics series",
			spec: `{"metrics": {"enabled": true, "series": ["gpu_temperature"]}}`,
			want: []string{`unknown metrics series "gpu_temperature"`, "have ["},
		},
		{
			name: "decisions configured but disabled",
			spec: `{"decisions": {"max_records": 128}}`,
			want: []string{"decisions configured but not enabled", `set "enabled": true`},
		},
		{
			name: "negative decisions max_records",
			spec: `{"decisions": {"enabled": true, "max_records": -7}}`,
			want: []string{"max_records -7", "want >= 0", "default"},
		},
		{
			name: "unknown decisions record facet",
			spec: `{"decisions": {"enabled": true, "record": ["gut_feeling"]}}`,
			want: []string{`unknown decisions record facet "gut_feeling"`, "have ["},
		},
		{
			name: "grid with no axes",
			spec: `{"workload": {"source": "synthetic"}, "grid": {}}`,
			want: []string{"grid block has no axes", "seeds, nodes, gpus_per_node, policies, scheds, jobs_per_hour, num_jobs, arrivals"},
		},
		{
			name: "grid with explicitly empty axis",
			spec: `{"workload": {"source": "synthetic"}, "grid": {"policies": []}}`,
			want: []string{"grid axis policies is empty", "want >= 1 value"},
		},
		{
			name: "grid axis with duplicate values",
			spec: `{"workload": {"source": "synthetic"}, "grid": {"seeds": [3, 3]}}`,
			want: []string{"grid axis seeds", "repeats value 3", "distinct"},
		},
		{
			name: "grid seed zero",
			spec: `{"workload": {"source": "synthetic"}, "grid": {"seeds": [0]}}`,
			want: []string{"grid seeds value 0", "want >= 1"},
		},
		{
			name: "grid nodes non-positive",
			spec: `{"workload": {"source": "synthetic"}, "grid": {"nodes": [-2]}}`,
			want: []string{"grid nodes value -2", "want >= 1"},
		},
		{
			name: "grid jobs_per_hour non-positive",
			spec: `{"workload": {"source": "synthetic"}, "grid": {"jobs_per_hour": [0]}}`,
			want: []string{"grid jobs_per_hour value 0", "want > 0"},
		},
		{
			name: "grid empty policy name",
			spec: `{"workload": {"source": "synthetic"}, "grid": {"policies": [""]}}`,
			want: []string{`grid policies value ""`, "registered placement-policy name"},
		},
		{
			name: "grid unknown field",
			spec: `{"workload": {"source": "synthetic"}, "grid": {"rack_sizes": [2]}}`,
			want: []string{"rack_sizes"},
		},
		{
			name: "grid cell invalid after expansion",
			spec: `{"workload": {"source": "synthetic"}, "grid": {"arrivals": ["weekly"]}}`,
			want: []string{"grid cell 1 of 1", "arrivals=weekly"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.spec))
			if err == nil {
				t.Fatalf("Parse accepted invalid spec %s", tc.spec)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not state %q", err, want)
				}
			}
		})
	}
}

// TestDecisionsNormalize: an enabled decisions block is canonicalized —
// the default ring size is filled in and the facet list is sorted and
// deduplicated — so two specs that differ only in facet order or
// repetition build the same cache key.
func TestDecisionsNormalize(t *testing.T) {
	spec, err := Parse([]byte(
		`{"decisions": {"enabled": true, "record": ["placements", "order", "placements", "ceilings"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spec.Decisions.MaxRecords, decision.DefaultMaxRecords; got != want {
		t.Errorf("MaxRecords = %d, want default %d", got, want)
	}
	if got, want := spec.Decisions.Record, []string{"ceilings", "order", "placements"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Record = %v, want sorted+deduped %v", got, want)
	}
	// Same block written in a different order must canonicalize (and
	// therefore key) identically.
	other, err := Parse([]byte(
		`{"decisions": {"enabled": true, "record": ["ceilings", "placements", "order"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	ba, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := other.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ba.Key(), bb.Key(); a != b {
		t.Errorf("facet order changed the cache key: %s vs %s", a, b)
	}
}
