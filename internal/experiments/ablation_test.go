package experiments

import (
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// TestAblationsRunFigureCells pins the ablations' run contract under a
// probe. The paper-default rows are plain figure cells: ablation_k's
// and ablation_priority's key exactly as SiaBaselineSpecs' PM-First
// cells do and ablation_online's as testbedSpec(PALPolicy, true), so
// AblationPriority after RunSiaBaseline serves its "on" row from
// memory. Every variant row is an altered cell: uncached (no key) and
// carrying its own engine counters.
func TestAblationsRunFigureCells(t *testing.T) {
	scale := Scale{SiaTraces: []int{1, 3}}
	key := func(spec *scenario.Spec) string {
		t.Helper()
		b, err := buildCell(spec)
		if err != nil {
			t.Fatal(err)
		}
		return b.Key()
	}
	want := map[string]map[string]bool{
		"ablation_k":        {},
		"ablation_priority": {},
		"ablation_online":   {key(testbedSpec(PALPolicy, true)): true},
	}
	for i, spec := range SiaBaselineSpecs(scale) {
		if Policy(i%int(numPolicies)) == PMFirst {
			want["ablation_k"][key(spec)] = true
			want["ablation_priority"][key(spec)] = true
		}
	}

	probe := &spanProbe{}
	withPool(t, 1, func() {
		if _, err := RunSiaBaseline(scale); err != nil {
			t.Fatal(err)
		}
		Pool().SetProbe(probe)
		for _, run := range []func(Scale) (*Table, error){AblationPriority, AblationK, AblationOnline} {
			if _, err := run(scale); err != nil {
				t.Fatal(err)
			}
		}
	})

	keyed := map[string]map[string]bool{}
	variants := 0
	for _, sp := range *probe {
		ablation, _, _ := strings.Cut(sp.Label, ":")
		if sp.Key == "" {
			variants++
			if sp.Outcome != runner.OutcomeExecuted || sp.Counters == nil {
				t.Errorf("variant task %q: outcome %s, counters %v; want executed with engine counters",
					sp.Label, sp.Outcome, sp.Counters != nil)
			}
			continue
		}
		if keyed[ablation] == nil {
			keyed[ablation] = map[string]bool{}
		}
		keyed[ablation][sp.Key] = true
		if ablation == "ablation_priority" && sp.Outcome != runner.OutcomeMemoryHit {
			t.Errorf("priority-on task %q: outcome %s, want %s after RunSiaBaseline",
				sp.Label, sp.Outcome, runner.OutcomeMemoryHit)
		}
	}
	for ablation, keys := range want {
		if len(keyed[ablation]) != len(keys) {
			t.Errorf("%s ran %d keyed cells, want %d", ablation, len(keyed[ablation]), len(keys))
		}
		for k := range keyed[ablation] {
			if !keys[k] {
				t.Errorf("%s ran keyed cell %.16s, not one of its figure cells", ablation, k)
			}
		}
	}
	// ablation_priority's off row, ablation_k's four fixed Ks and exact
	// scores over both traces, and ablation_online's online row.
	if wantVariants := 2 + 5*2 + 1; variants != wantVariants {
		t.Errorf("%d variant tasks, want %d", variants, wantVariants)
	}
}
