package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// mapBackend is an in-process runner.Backend: a second cache tier that
// outlives one pool's cache.
type mapBackend struct {
	mu      sync.Mutex
	results map[string]*sim.Result
}

func (m *mapBackend) Get(key string) (*sim.Result, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	res, ok := m.results[key]
	return res, ok, nil
}

func (m *mapBackend) Put(key string, res *sim.Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.results[key] = res
	return nil
}

// TestAblationsRunFigureCells pins the ablations' run contract under a
// probe. Every row is a keyed figure cell: the paper-default rows are
// plain cells (ablation_k's and ablation_priority's key exactly as
// SiaBaselineSpecs' PM-First cells do, so they are served from memory
// after RunSiaBaseline, and ablation_online's as testbedSpec(PALPolicy,
// true)), and every variant row is the same cells under policy.params,
// with a key of its own. A second run serves every cell from memory,
// and a run on a fresh cache over the first run's backend serves every
// cell from it.
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
	plain := map[string]map[string]bool{
		"ablation_k":        {},
		"ablation_priority": {},
		"ablation_online":   {key(testbedSpec(PALPolicy, true)): true},
	}
	for i, spec := range SiaBaselineSpecs(scale) {
		if Policy(i%int(numPolicies)) == PMFirst {
			plain["ablation_k"][key(spec)] = true
			plain["ablation_priority"][key(spec)] = true
		}
	}
	// Rows times cells: ablation_k's four fixed Ks, silhouette and exact
	// scores over both traces; the other Sia ablations' two rows over
	// both traces; ablation_online's two rows over the testbed cell.
	cells := map[string]int{
		"ablation_k":          6 * 2,
		"ablation_priority":   2 * 2,
		"ablation_hysteresis": 2 * 2,
		"ablation_rack":       2 * 2,
		"ablation_online":     2 * 1,
	}
	ablations := []Runner{AblationPriority, AblationK, AblationOnline, AblationHysteresis, AblationRack}
	defer SetPool(Pool())
	run := func(pool *runner.Pool) spanProbe {
		t.Helper()
		probe := &spanProbe{}
		pool.SetProbe(probe)
		SetPool(pool)
		for _, run := range ablations {
			if _, err := run(scale); err != nil {
				t.Fatal(err)
			}
		}
		return *probe
	}
	ablation := func(sp runner.TaskSpan) string {
		name, _, _ := strings.Cut(sp.Label, ":")
		return name
	}

	backend := &mapBackend{results: map[string]*sim.Result{}}
	cache := runner.NewResultCache(256)
	cache.SetBackend(backend)
	pool := runner.NewPool(1, cache)
	SetPool(pool)
	if _, err := RunSiaBaseline(scale); err != nil {
		t.Fatal(err)
	}

	keyed := map[string]map[string]bool{}
	for _, sp := range run(pool) {
		name := ablation(sp)
		if sp.Key == "" {
			t.Errorf("task %q ran uncached; every ablation cell has a key", sp.Label)
			continue
		}
		if keyed[name] == nil {
			keyed[name] = map[string]bool{}
		}
		keyed[name][sp.Key] = true
		switch {
		case plain[name][sp.Key]:
			if name != "ablation_online" && sp.Outcome != runner.OutcomeMemoryHit {
				t.Errorf("paper-default task %q: outcome %s, want %s after RunSiaBaseline",
					sp.Label, sp.Outcome, runner.OutcomeMemoryHit)
			}
		case strings.HasSuffix(sp.Label, "]"):
			// A variant (its label ends in its params): the first run
			// simulates it, with its own engine counters.
			if sp.Outcome != runner.OutcomeExecuted || sp.Counters == nil {
				t.Errorf("variant task %q: outcome %s, counters %v; want executed with engine counters",
					sp.Label, sp.Outcome, sp.Counters != nil)
			}
		}
	}
	for name, want := range cells {
		// Distinct keys per ablation: no variant aliases the plain cells
		// or another variant.
		if len(keyed[name]) != want {
			t.Errorf("%s ran %d distinct keys, want %d (rows x cells)", name, len(keyed[name]), want)
		}
		for k := range plain[name] {
			if !keyed[name][k] {
				t.Errorf("%s did not run its paper-default cell %.16s", name, k)
			}
		}
	}

	for _, sp := range run(pool) {
		if sp.Outcome != runner.OutcomeMemoryHit {
			t.Errorf("second run: task %q outcome %s, want %s", sp.Label, sp.Outcome, runner.OutcomeMemoryHit)
		}
	}

	fresh := runner.NewResultCache(256)
	fresh.SetBackend(backend)
	stored := map[string]bool{}
	for _, sp := range run(runner.NewPool(1, fresh)) {
		switch sp.Outcome {
		case runner.OutcomeStoreHit:
			stored[sp.Key] = true
		case runner.OutcomeMemoryHit:
			// ablation_k's silhouette row, after ablation_priority's on
			// row read it.
		default:
			t.Errorf("backend run: task %q outcome %s, want a cache hit", sp.Label, sp.Outcome)
		}
	}
	all := map[string]bool{}
	for _, keys := range keyed {
		for k := range keys {
			all[k] = true
		}
	}
	if len(stored) != len(all) {
		t.Errorf("backend run read %d cells from the backend, want all %d", len(stored), len(all))
	}
}
