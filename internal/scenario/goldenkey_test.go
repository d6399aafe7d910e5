package scenario

import (
	"fmt"
	"testing"
)

// goldenSpecKey pins Built.Key() for the checked-in reference spec.
// Cache keys are content hashes of the full run configuration; a key
// that drifts without anyone touching the configuration means the
// encoding changed silently — exactly the stale-cache bug class the
// content-addressed design exists to prevent. If this test fails because
// you *deliberately* changed the spec schema, its defaults, the example
// spec, a generator, or the key encoding: bump the version tag in
// Built.Key (per the cache-key invariant) and update the constant below
// in the same commit.
const goldenSpecKey = "32296f0334e1442fe007733bae55f489ce0c527c4410af0312b52b67b495555b"

func TestGoldenScenarioKey(t *testing.T) {
	spec, err := LoadFile("../../examples/scenario/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Key(); got != goldenSpecKey {
		t.Errorf("examples/scenario/spec.json key drifted:\n  got  %s\n  want %s\n"+
			"If this change is intentional, bump the version tag in Built.Key and update goldenSpecKey.",
			got, goldenSpecKey)
	}

	// The golden value must also be sensitive: enabling the decisions
	// block has to move the key (its trace rides on cached results).
	spec.Decisions.Enabled = true
	spec.Normalize()
	b2, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b2.Key() == goldenSpecKey {
		t.Error("decisions block does not feed the cache key (stale-cache hazard)")
	}

	// Likewise the fork block: a forked run must never alias its
	// unforked counterpart's cached result.
	spec.Decisions = DecisionsSpec{}
	spec.Fork = &ForkSpec{Rounds: 10}
	spec.Normalize()
	b3, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b3.Key() == goldenSpecKey {
		t.Error("fork block does not feed the cache key (stale-cache hazard)")
	}
}

// TestGridAxisKeySensitivity: every grid axis must perturb the expanded
// cells' cache keys through the *configuration*, not just through the
// generated cell names. For each axis, a two-value single-axis grid is
// expanded and both cells are renamed to the same probe name before
// keying — if the keys still differ, the axis genuinely feeds the
// simulation inputs; if they collide, the axis is decorative and a
// sweep over it would serve one cell's cached result for the other (the
// stale-cache bug class).
func TestGridAxisKeySensitivity(t *testing.T) {
	axes := []struct {
		name string
		grid string
	}{
		{"seeds", `"seeds": [1, 2]`},
		{"nodes", `"nodes": [2, 4]`},
		{"gpus_per_node", `"gpus_per_node": [2, 4]`},
		{"policies", `"policies": ["pal", "pm-first"]`},
		{"scheds", `"scheds": ["fifo", "srtf"]`},
		{"jobs_per_hour", `"jobs_per_hour": [10, 20]`},
		{"num_jobs", `"num_jobs": [20, 40]`},
		{"arrivals", `"arrivals": ["poisson", "bursty"]`},
	}
	for _, ax := range axes {
		t.Run(ax.name, func(t *testing.T) {
			spec, err := Parse([]byte(fmt.Sprintf(
				`{"name": "sens", "cluster": {"nodes": 4}, "workload": {"source": "synthetic", "num_jobs": 20}, "grid": {%s}}`,
				ax.grid)))
			if err != nil {
				t.Fatal(err)
			}
			cells, err := spec.ExpandGrid()
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != 2 {
				t.Fatalf("expanded %d cells, want 2", len(cells))
			}
			keys := make([]string, len(cells))
			for i, c := range cells {
				c.Name = "probe"
				b, err := c.Build()
				if err != nil {
					t.Fatal(err)
				}
				keys[i] = b.Key()
			}
			if keys[0] == keys[1] {
				t.Errorf("axis %s does not perturb the cell cache key (both cells keyed %s)", ax.name, keys[0][:16])
			}
		})
	}
}
